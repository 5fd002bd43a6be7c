// Package turbofan is the optimizing tier of the execution engine, named
// after V8's optimizing compiler. It compiles validated WebAssembly into
// register-machine code: the operand stack is eliminated (every stack slot
// maps to a fixed virtual register), then rounds of four passes run over the
// basic-block graph:
//   - block-local constant folding and copy propagation, which also turns
//     constant operands into immediates (d ← a op imm), fuses the address
//     computation feeding a load into the load, and makes a def write
//     straight to the local a following move copies it to;
//   - compare-and-branch fusion, for register and immediate operands;
//   - jump threading;
//   - global liveness-based dead-code elimination.
//
// Linearization then inverts loops whose back edge jumps to a short test.
// Each of these cuts the instructions the register VM dispatches per row.
// Compilation costs several passes — an order of magnitude more than liftoff
// — and yields correspondingly faster code, reproducing the tier asymmetry
// the paper's architecture delegates to V8 (§2.2).
package turbofan

import (
	"math"
	"math/bits"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/wasm"
)

// tin is a three-address register instruction. Simple value operations reuse
// the wasm.Opcode numbering (d ← a op b); the extended opcodes below cover
// control flow, calls and the fused forms the optimizer makes. A branch keeps
// its target in d (a block id while optimizing, a pc after linearization),
// which leaves imm free for a compare-immediate branch's constant.
type tin struct {
	op      uint16
	d, a, b int32
	imm     uint64
}

// Extended opcodes, numbered from 0x100 with no gaps. The switch in
// (*Code).run compiles to one jump table only while its cases fill at least
// a quarter of the range they span; past that Go emits a binary search over
// the cases, which costs more per instruction than the fused forms save.
// `make lint-dispatch` checks that the jump table is there.
const (
	tMove         = 0x100 + iota // d ← a
	tJump                        // goto d
	tJumpIfZero                  // if a == 0 goto d
	tJumpIfNot                   // if a != 0 goto d
	tBrTable                     // switch a over tables[imm]
	tRet                         // return; results in regs [nLocals, nLocals+nResults)
	tCall                        // call imm; args at regs [a, a+np), results at [a, a+nr); b = np<<16|nr
	tCallIndirect                // like tCall; imm = type index; table index in reg a+np
	tSelect                      // d ← (regs[imm] != 0) ? a : b
	tUnreachable                 // trap
	tMemorySize                  // d ← pages
	tMemoryGrow                  // d ← grow(a)
	tGlobalGet                   // d ← globals[imm]
	tGlobalSet                   // globals[imm] ← a
	tNop                         // removed at linearization

	// tBrCmp+k: if comparison k of (a, b) holds, goto d.
	tBrCmp
	// tBrCmpNot+(k-cmpF32Eq): if float comparison k of (a, b) fails, goto
	// d. An integer comparison is negated by switching its kind instead.
	tBrCmpNot = tBrCmp + numCmpKinds
	// tBrCmpImm+k: if integer comparison k of (a, imm) holds, goto d.
	tBrCmpImm = tBrCmpNot + numCmpKinds - cmpF32Eq
	// tCmpImm+k: d ← integer comparison k of (a, imm).
	tCmpImm = tBrCmpImm + cmpF32Eq
	// Register-immediate arithmetic, d ← a op imm, in binImmOps order.
	tBinImm = tCmpImm + cmpF32Eq
	// Fused address-mode loads, one per loadWidth, zero-extending:
	//   tLoadAdd+w:    d ← mem[u32(a + b) + imm]
	//   tLoadAddImm+w: d ← mem[u32(a + u32(b)) + imm]
	//   tLoadShl+w:    d ← mem[u32(a << b) + imm]
	//   tLoadConst+w:  d ← mem[imm]
	// The base wraps to 32 bits and the offset is added unwrapped, exactly
	// as the i32.add or i32.shl feeding a Wasm load computes it. A constant
	// base is added to the offset at compile time, when the sum is in range.
	tLoadAdd    = tI64ShrUImm + 1
	tLoadAddImm = tLoadAdd + numLoadWidths
	tLoadShl    = tLoadAddImm + numLoadWidths
	tLoadConst  = tLoadShl + numLoadWidths
	numOps      = tLoadConst + numLoadWidths
)

// binImmOps lists the binary operations with a register-immediate form.
// i32 immediates are stored zero-extended. Subtraction has no form of its
// own: x - c becomes x + (-c).
var binImmOps = [tLoadAdd - tBinImm]wasm.Opcode{
	wasm.OpI32Add, wasm.OpI32Mul, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
	wasm.OpI32Shl, wasm.OpI32ShrS, wasm.OpI32ShrU,
	wasm.OpI64Add, wasm.OpI64Mul, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor,
	wasm.OpI64Shl, wasm.OpI64ShrS, wasm.OpI64ShrU,
}

// The register-immediate opcodes, named for run's switch.
const (
	tI32AddImm = tBinImm + iota
	tI32MulImm
	tI32AndImm
	tI32OrImm
	tI32XorImm
	tI32ShlImm
	tI32ShrSImm
	tI32ShrUImm
	tI64AddImm
	tI64MulImm
	tI64AndImm
	tI64OrImm
	tI64XorImm
	tI64ShlImm
	tI64ShrSImm
	tI64ShrUImm
)

// Load widths of the fused loads. Every zero-extending load maps onto one;
// sign-extending loads are not fused.
const (
	ldU8 = iota
	ldU16
	ldU32
	ldU64
	numLoadWidths
)

// loadSize is the access size in bytes of each load width.
var loadSize = [numLoadWidths]uint64{ldU8: 1, ldU16: 2, ldU32: 4, ldU64: 8}

// loadWidth returns the fused-load width of a wasm load opcode.
func loadWidth(op uint16) (int, bool) {
	switch wasm.Opcode(op) {
	case wasm.OpI32Load8U, wasm.OpI64Load8U:
		return ldU8, true
	case wasm.OpI32Load16U, wasm.OpI64Load16U:
		return ldU16, true
	case wasm.OpI32Load, wasm.OpF32Load, wasm.OpI64Load32U:
		return ldU32, true
	case wasm.OpI64Load, wasm.OpF64Load:
		return ldU64, true
	}
	return 0, false
}

// Comparison kind indices.
const (
	cmpI32Eq = iota
	cmpI32Ne
	cmpI32LtS
	cmpI32LtU
	cmpI32GtS
	cmpI32GtU
	cmpI32LeS
	cmpI32LeU
	cmpI32GeS
	cmpI32GeU
	cmpI64Eq
	cmpI64Ne
	cmpI64LtS
	cmpI64LtU
	cmpI64GtS
	cmpI64GtU
	cmpI64LeS
	cmpI64LeU
	cmpI64GeS
	cmpI64GeU
	cmpF32Eq
	cmpF32Ne
	cmpF32Lt
	cmpF32Gt
	cmpF32Le
	cmpF32Ge
	cmpF64Eq
	cmpF64Ne
	cmpF64Lt
	cmpF64Gt
	cmpF64Le
	cmpF64Ge
	numCmpKinds
)

// negCmp[k] is the integer comparison that holds exactly when k fails.
// Float comparisons have no such partner (NaN fails both), so they
// branch through tBrCmpNot instead.
var negCmp = [cmpF32Eq]uint8{
	cmpI32Eq: cmpI32Ne, cmpI32Ne: cmpI32Eq,
	cmpI32LtS: cmpI32GeS, cmpI32LtU: cmpI32GeU, cmpI32GtS: cmpI32LeS, cmpI32GtU: cmpI32LeU,
	cmpI32LeS: cmpI32GtS, cmpI32LeU: cmpI32GtU, cmpI32GeS: cmpI32LtS, cmpI32GeU: cmpI32LtU,
	cmpI64Eq: cmpI64Ne, cmpI64Ne: cmpI64Eq,
	cmpI64LtS: cmpI64GeS, cmpI64LtU: cmpI64GeU, cmpI64GtS: cmpI64LeS, cmpI64GtU: cmpI64LeU,
	cmpI64LeS: cmpI64GtS, cmpI64LeU: cmpI64GtU, cmpI64GeS: cmpI64LtS, cmpI64GeU: cmpI64LtU,
}

// swapCmp[k] is the integer comparison of (y, x) equal to k of (x, y).
var swapCmp = [cmpF32Eq]uint8{
	cmpI32Eq: cmpI32Eq, cmpI32Ne: cmpI32Ne,
	cmpI32LtS: cmpI32GtS, cmpI32LtU: cmpI32GtU, cmpI32GtS: cmpI32LtS, cmpI32GtU: cmpI32LtU,
	cmpI32LeS: cmpI32GeS, cmpI32LeU: cmpI32GeU, cmpI32GeS: cmpI32LeS, cmpI32GeU: cmpI32LeU,
	cmpI64Eq: cmpI64Eq, cmpI64Ne: cmpI64Ne,
	cmpI64LtS: cmpI64GtS, cmpI64LtU: cmpI64GtU, cmpI64GtS: cmpI64LtS, cmpI64GtU: cmpI64LtU,
	cmpI64LeS: cmpI64GeS, cmpI64LeU: cmpI64GeU, cmpI64GeS: cmpI64LeS, cmpI64GeU: cmpI64LeU,
}

// negBranch returns the conditional branch with the same operands and
// target that is taken exactly when op is not.
func negBranch(op uint16) uint16 {
	switch {
	case op == tJumpIfZero:
		return tJumpIfNot
	case op == tJumpIfNot:
		return tJumpIfZero
	case op >= tBrCmp && op < tBrCmp+cmpF32Eq:
		return tBrCmp + uint16(negCmp[op-tBrCmp])
	case op >= tBrCmp+cmpF32Eq && op < tBrCmpNot:
		return tBrCmpNot + op - (tBrCmp + cmpF32Eq)
	case op >= tBrCmpNot && op < tBrCmpImm:
		return tBrCmp + cmpF32Eq + op - tBrCmpNot
	case op >= tBrCmpImm && op < tCmpImm:
		return tBrCmpImm + uint16(negCmp[op-tBrCmpImm])
	}
	panic("turbofan: negBranch of a non-conditional op")
}

// cmpKind maps a wasm comparison opcode to its kind index; ok=false for
// non-comparison opcodes (including eqz, which fuses differently).
func cmpKind(op uint16) (int, bool) {
	switch {
	case op >= uint16(wasm.OpI32Eq) && op <= uint16(wasm.OpI32GeU):
		return cmpI32Eq + int(op) - int(wasm.OpI32Eq), true
	case op >= uint16(wasm.OpI64Eq) && op <= uint16(wasm.OpI64GeU):
		return cmpI64Eq + int(op) - int(wasm.OpI64Eq), true
	case op >= uint16(wasm.OpF32Eq) && op <= uint16(wasm.OpF32Ge):
		return cmpF32Eq + int(op) - int(wasm.OpF32Eq), true
	case op >= uint16(wasm.OpF64Eq) && op <= uint16(wasm.OpF64Ge):
		return cmpF64Eq + int(op) - int(wasm.OpF64Eq), true
	}
	return 0, false
}

// evalCmp evaluates comparison kind k on raw values.
func evalCmp(k int, x, y uint64) bool {
	switch k {
	case cmpI32Eq:
		return uint32(x) == uint32(y)
	case cmpI32Ne:
		return uint32(x) != uint32(y)
	case cmpI32LtS:
		return int32(uint32(x)) < int32(uint32(y))
	case cmpI32LtU:
		return uint32(x) < uint32(y)
	case cmpI32GtS:
		return int32(uint32(x)) > int32(uint32(y))
	case cmpI32GtU:
		return uint32(x) > uint32(y)
	case cmpI32LeS:
		return int32(uint32(x)) <= int32(uint32(y))
	case cmpI32LeU:
		return uint32(x) <= uint32(y)
	case cmpI32GeS:
		return int32(uint32(x)) >= int32(uint32(y))
	case cmpI32GeU:
		return uint32(x) >= uint32(y)
	case cmpI64Eq:
		return x == y
	case cmpI64Ne:
		return x != y
	case cmpI64LtS:
		return int64(x) < int64(y)
	case cmpI64LtU:
		return x < y
	case cmpI64GtS:
		return int64(x) > int64(y)
	case cmpI64GtU:
		return x > y
	case cmpI64LeS:
		return int64(x) <= int64(y)
	case cmpI64LeU:
		return x <= y
	case cmpI64GeS:
		return int64(x) >= int64(y)
	case cmpI64GeU:
		return x >= y
	case cmpF32Eq:
		return rt.F32(x) == rt.F32(y)
	case cmpF32Ne:
		return rt.F32(x) != rt.F32(y)
	case cmpF32Lt:
		return rt.F32(x) < rt.F32(y)
	case cmpF32Gt:
		return rt.F32(x) > rt.F32(y)
	case cmpF32Le:
		return rt.F32(x) <= rt.F32(y)
	case cmpF32Ge:
		return rt.F32(x) >= rt.F32(y)
	case cmpF64Eq:
		return rt.F64(x) == rt.F64(y)
	case cmpF64Ne:
		return rt.F64(x) != rt.F64(y)
	case cmpF64Lt:
		return rt.F64(x) < rt.F64(y)
	case cmpF64Gt:
		return rt.F64(x) > rt.F64(y)
	case cmpF64Le:
		return rt.F64(x) <= rt.F64(y)
	case cmpF64Ge:
		return rt.F64(x) >= rt.F64(y)
	}
	return false
}

// pureEval evaluates side-effect-free value operations at compile time for
// constant folding. Trapping operations (divisions, truncations) and memory
// operations report ok=false and are never folded.
func pureEval(op uint16, x, y uint64) (uint64, bool) {
	if k, ok := cmpKind(op); ok {
		return rt.B2i(evalCmp(k, x, y)), true
	}
	switch wasm.Opcode(op) {
	case wasm.OpI32Eqz:
		return rt.B2i(uint32(x) == 0), true
	case wasm.OpI64Eqz:
		return rt.B2i(x == 0), true
	case wasm.OpI32Add:
		return uint64(uint32(x) + uint32(y)), true
	case wasm.OpI32Sub:
		return uint64(uint32(x) - uint32(y)), true
	case wasm.OpI32Mul:
		return uint64(uint32(x) * uint32(y)), true
	case wasm.OpI32And:
		return uint64(uint32(x) & uint32(y)), true
	case wasm.OpI32Or:
		return uint64(uint32(x) | uint32(y)), true
	case wasm.OpI32Xor:
		return uint64(uint32(x) ^ uint32(y)), true
	case wasm.OpI32Shl:
		return uint64(uint32(x) << (y & 31)), true
	case wasm.OpI32ShrS:
		return uint64(uint32(int32(uint32(x)) >> (y & 31))), true
	case wasm.OpI32ShrU:
		return uint64(uint32(x) >> (y & 31)), true
	case wasm.OpI32Rotl:
		return rt.Rotl32(x, y), true
	case wasm.OpI32Rotr:
		return rt.Rotr32(x, y), true
	case wasm.OpI32Clz:
		return uint64(bits.LeadingZeros32(uint32(x))), true
	case wasm.OpI32Ctz:
		return uint64(bits.TrailingZeros32(uint32(x))), true
	case wasm.OpI32Popcnt:
		return uint64(bits.OnesCount32(uint32(x))), true
	case wasm.OpI64Add:
		return x + y, true
	case wasm.OpI64Sub:
		return x - y, true
	case wasm.OpI64Mul:
		return x * y, true
	case wasm.OpI64And:
		return x & y, true
	case wasm.OpI64Or:
		return x | y, true
	case wasm.OpI64Xor:
		return x ^ y, true
	case wasm.OpI64Shl:
		return x << (y & 63), true
	case wasm.OpI64ShrS:
		return uint64(int64(x) >> (y & 63)), true
	case wasm.OpI64ShrU:
		return x >> (y & 63), true
	case wasm.OpI64Rotl:
		return rt.Rotl64(x, y), true
	case wasm.OpI64Rotr:
		return rt.Rotr64(x, y), true
	case wasm.OpI64Clz:
		return uint64(bits.LeadingZeros64(x)), true
	case wasm.OpI64Ctz:
		return uint64(bits.TrailingZeros64(x)), true
	case wasm.OpI64Popcnt:
		return uint64(bits.OnesCount64(x)), true
	case wasm.OpF64Add:
		return rt.F64Bits(rt.F64(x) + rt.F64(y)), true
	case wasm.OpF64Sub:
		return rt.F64Bits(rt.F64(x) - rt.F64(y)), true
	case wasm.OpF64Mul:
		return rt.F64Bits(rt.F64(x) * rt.F64(y)), true
	case wasm.OpF64Div:
		return rt.F64Bits(rt.F64(x) / rt.F64(y)), true
	case wasm.OpF64Neg:
		return x ^ 0x8000000000000000, true
	case wasm.OpF64Abs:
		return x &^ 0x8000000000000000, true
	case wasm.OpF64Sqrt:
		return rt.F64Bits(math.Sqrt(rt.F64(x))), true
	case wasm.OpF32Add:
		return rt.F32Bits(rt.F32(x) + rt.F32(y)), true
	case wasm.OpF32Sub:
		return rt.F32Bits(rt.F32(x) - rt.F32(y)), true
	case wasm.OpF32Mul:
		return rt.F32Bits(rt.F32(x) * rt.F32(y)), true
	case wasm.OpF32Div:
		return rt.F32Bits(rt.F32(x) / rt.F32(y)), true
	case wasm.OpI32WrapI64:
		return uint64(uint32(x)), true
	case wasm.OpI64ExtendI32S:
		return uint64(int64(int32(uint32(x)))), true
	case wasm.OpI64ExtendI32U:
		return uint64(uint32(x)), true
	case wasm.OpF64ConvertI32S:
		return rt.F64Bits(float64(int32(uint32(x)))), true
	case wasm.OpF64ConvertI32U:
		return rt.F64Bits(float64(uint32(x))), true
	case wasm.OpF64ConvertI64S:
		return rt.F64Bits(float64(int64(x))), true
	case wasm.OpF64ConvertI64U:
		return rt.F64Bits(float64(x)), true
	case wasm.OpF64PromoteF32:
		return rt.F64Bits(float64(rt.F32(x))), true
	case wasm.OpF32DemoteF64:
		return rt.F32Bits(float32(rt.F64(x))), true
	case wasm.OpF32ConvertI32S:
		return rt.F32Bits(float32(int32(uint32(x)))), true
	case wasm.OpF32ConvertI64S:
		return rt.F32Bits(float32(int64(x))), true
	case wasm.OpI32ReinterpretF32, wasm.OpI64ReinterpretF64,
		wasm.OpF32ReinterpretI32, wasm.OpF64ReinterpretI64:
		return x, true
	case wasm.OpI32Extend8S:
		return uint64(uint32(int32(int8(uint8(x))))), true
	case wasm.OpI32Extend16S:
		return uint64(uint32(int32(int16(uint16(x))))), true
	case wasm.OpI64Extend8S:
		return uint64(int64(int8(uint8(x)))), true
	case wasm.OpI64Extend16S:
		return uint64(int64(int16(uint16(x)))), true
	case wasm.OpI64Extend32S:
		return uint64(int64(int32(uint32(x)))), true
	}
	return 0, false
}

// opKind classifies instructions for the generic pass machinery.
type opKind uint8

const (
	kindOther     opKind = iota // calls, branches, globals, memory size/grow
	kindBin                     // d ← a op b (pure unless trapping)
	kindUn                      // d ← op a
	kindConst                   // d ← imm
	kindMove                    // d ← a
	kindLoad                    // d ← mem[a+imm]
	kindStore                   // mem[a+imm] ← b
	kindSelect                  // d ← regs[imm] ? a : b
	kindBinImm                  // d ← a op imm (tCmpImm and tBinImm)
	kindLoadFused               // d ← mem[addr(a, b)+imm]
)

// opInfo describes one opcode for the passes: its kind, whether it may trap
// (so DCE must keep it even when its result is dead), which of a and b it
// reads, whether it writes d, and how it transfers control. tSelect's
// condition register, calls and tRet read registers beyond a and b; see
// (*optimizer).liveStep.
type opInfo struct {
	kind                   opKind
	traps                  bool
	useA, useB, def        bool
	branch, uncond, target bool
}

var opInfos [numOps]opInfo

// immForms maps a wasm opcode to its register-immediate form (0 if none),
// and immBase maps the form back.
var (
	immForms [0x100]uint16
	immBase  [numOps]uint16
)

func init() {
	for op := range opInfos {
		opInfos[op] = classify(uint16(op))
	}
	for i, op := range binImmOps {
		immForms[op] = uint16(tBinImm + i)
		immBase[tBinImm+i] = uint16(op)
	}
	immForms[wasm.OpI32Sub] = tI32AddImm // with the constant negated
	immForms[wasm.OpI64Sub] = tI64AddImm
	for k := 0; k < cmpF32Eq; k++ {
		op := uint16(wasm.OpI32Eq) + uint16(k)
		if k >= cmpI64Eq {
			op = uint16(wasm.OpI64Eq) + uint16(k-cmpI64Eq)
		}
		immForms[op] = uint16(tCmpImm + k)
		immBase[tCmpImm+k] = op
	}
}

// classify builds the opInfo of one opcode.
func classify(op uint16) opInfo {
	switch {
	case op == tMove:
		return opInfo{kind: kindMove, useA: true, def: true}
	case op == tSelect:
		return opInfo{kind: kindSelect, useA: true, useB: true, def: true}
	case op == tJump:
		return opInfo{branch: true, uncond: true, target: true}
	case op == tRet, op == tUnreachable:
		return opInfo{branch: true, uncond: true}
	case op == tBrTable:
		return opInfo{useA: true, branch: true, uncond: true}
	case op == tJumpIfZero, op == tJumpIfNot:
		return opInfo{useA: true, branch: true, target: true}
	case op >= tBrCmp && op < tBrCmpImm:
		return opInfo{useA: true, useB: true, branch: true, target: true}
	case op >= tBrCmpImm && op < tCmpImm:
		return opInfo{useA: true, branch: true, target: true}
	case op >= tCmpImm && op < tLoadAdd:
		return opInfo{kind: kindBinImm, useA: true, def: true}
	case op >= tLoadAdd && op < tLoadAddImm:
		return opInfo{kind: kindLoadFused, traps: true, useA: true, useB: true, def: true}
	case op >= tLoadAddImm && op < tLoadConst:
		return opInfo{kind: kindLoadFused, traps: true, useA: true, def: true}
	case op >= tLoadConst && op < numOps:
		return opInfo{kind: kindLoadFused, traps: true, def: true}
	case op == tMemorySize, op == tGlobalGet:
		return opInfo{def: true}
	case op == tMemoryGrow:
		return opInfo{useA: true, def: true}
	case op == tGlobalSet:
		return opInfo{useA: true}
	case op >= 0x100:
		return opInfo{}
	}
	wop := wasm.Opcode(op)
	switch wop {
	case wasm.OpI32Const, wasm.OpI64Const, wasm.OpF32Const, wasm.OpF64Const:
		return opInfo{kind: kindConst, def: true}
	}
	if wop >= wasm.OpI32Load && wop <= wasm.OpI64Load32U {
		return opInfo{kind: kindLoad, traps: true, useA: true, def: true}
	}
	if wop >= wasm.OpI32Store && wop <= wasm.OpI64Store32 {
		return opInfo{kind: kindStore, traps: true, useA: true, useB: true}
	}
	if in, out, ok := wop.InOut(); ok {
		traps := false
		switch wop {
		case wasm.OpI32DivS, wasm.OpI32DivU, wasm.OpI32RemS, wasm.OpI32RemU,
			wasm.OpI64DivS, wasm.OpI64DivU, wasm.OpI64RemS, wasm.OpI64RemU,
			wasm.OpI32TruncF32S, wasm.OpI32TruncF32U, wasm.OpI32TruncF64S, wasm.OpI32TruncF64U,
			wasm.OpI64TruncF32S, wasm.OpI64TruncF32U, wasm.OpI64TruncF64S, wasm.OpI64TruncF64U:
			traps = true
		}
		if in == 2 && out == 1 {
			return opInfo{kind: kindBin, traps: traps, useA: true, useB: true, def: true}
		}
		if in == 1 && out == 1 {
			return opInfo{kind: kindUn, traps: traps, useA: true, def: true}
		}
	}
	return opInfo{}
}
