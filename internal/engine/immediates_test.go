package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/wasm"
)

// Constant operands become immediates in the optimizing tier: d ← a op imm,
// compare-immediate values, and compare-immediate branches of both
// polarities. These tests run every such form on both tiers against the
// same operation on two register operands, over edge values: shift counts
// at and beyond the width, i64 constants outside the int32 range, and
// negative signed operands.

var (
	immOpsI32 = []wasm.Opcode{
		wasm.OpI32Add, wasm.OpI32Sub, wasm.OpI32Mul, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
		wasm.OpI32Shl, wasm.OpI32ShrS, wasm.OpI32ShrU,
		wasm.OpI32Eq, wasm.OpI32Ne, wasm.OpI32LtS, wasm.OpI32LtU, wasm.OpI32GtS, wasm.OpI32GtU,
		wasm.OpI32LeS, wasm.OpI32LeU, wasm.OpI32GeS, wasm.OpI32GeU,
	}
	immOpsI64 = []wasm.Opcode{
		wasm.OpI64Add, wasm.OpI64Sub, wasm.OpI64Mul, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor,
		wasm.OpI64Shl, wasm.OpI64ShrS, wasm.OpI64ShrU,
		wasm.OpI64Eq, wasm.OpI64Ne, wasm.OpI64LtS, wasm.OpI64LtU, wasm.OpI64GtS, wasm.OpI64GtU,
		wasm.OpI64LeS, wasm.OpI64LeU, wasm.OpI64GeS, wasm.OpI64GeU,
	}
	edgeI32 = []int32{0, 1, 7, 31, 32, 33, -1, -7, math.MaxInt32, math.MinInt32}
	edgeI64 = []int64{0, 1, 63, 64, 65, -1, -7, 1 << 31, 1<<32 + 5, -(1 << 40), math.MaxInt64, math.MinInt64}
)

// isCompare reports whether op is an integer comparison (i32 or i64).
func isCompare(op wasm.Opcode) bool {
	return op >= wasm.OpI32Eq && op <= wasm.OpI32GeU || op >= wasm.OpI64Eq && op <= wasm.OpI64GeU
}

// immModule builds, for one binary op of type vt, the reference function
// "reg"(x, y) = op(x, y) and, for every edge constant c (index i):
//   - "r<i>"(x) = op(x, c) and "l<i>"(x) = op(c, x);
//   - for comparisons, "brif_r<i>"/"brif_l<i>" (br_if on the compare: taken
//     when it holds) and "if_r<i>" (if/else on it: branches when it fails),
//     each returning 1 when the comparison holds and 0 otherwise.
func immModule(op wasm.Opcode, vt wasm.ValType, consts []uint64) []byte {
	b := wasm.NewModuleBuilder()
	res, _ := op.ResultType()
	export := func(f *wasm.FuncBuilder, name string) { b.Export(name, wasm.ExternFunc, f.Index) }
	konst := func(f *wasm.FuncBuilder, c uint64) {
		if vt == wasm.I32 {
			f.I32Const(int32(uint32(c)))
		} else {
			f.I64Const(int64(c))
		}
	}
	reg := b.NewFunc("reg", wasm.FuncType{Params: []wasm.ValType{vt, vt}, Results: []wasm.ValType{res}})
	reg.LocalGet(0)
	reg.LocalGet(1)
	reg.Op(op)
	export(reg, "reg")
	unary := wasm.FuncType{Params: []wasm.ValType{vt}, Results: []wasm.ValType{res}}
	for i, c := range consts {
		r := b.NewFunc("", unary)
		r.LocalGet(0)
		konst(r, c)
		r.Op(op)
		export(r, fmt.Sprintf("r%d", i))

		l := b.NewFunc("", unary)
		konst(l, c)
		l.LocalGet(0)
		l.Op(op)
		export(l, fmt.Sprintf("l%d", i))

		if !isCompare(op) {
			continue
		}
		for _, left := range []bool{false, true} {
			// block (result i32) i32.const 1; <cmp>; br_if 0; drop; i32.const 0 end
			br := b.NewFunc("", unary)
			br.Block(wasm.BlockType(wasm.I32))
			br.I32Const(1)
			if left {
				konst(br, c)
				br.LocalGet(0)
			} else {
				br.LocalGet(0)
				konst(br, c)
			}
			br.Op(op)
			br.BrIf(0)
			br.Drop()
			br.I32Const(0)
			br.End()
			name := fmt.Sprintf("brif_r%d", i)
			if left {
				name = fmt.Sprintf("brif_l%d", i)
			}
			export(br, name)
		}
		// <cmp>; if (result i32) i32.const 1 else i32.const 0 end
		iff := b.NewFunc("", unary)
		iff.LocalGet(0)
		konst(iff, c)
		iff.Op(op)
		iff.If(wasm.BlockType(wasm.I32))
		iff.I32Const(1)
		iff.Else()
		iff.I32Const(0)
		iff.End()
		export(iff, fmt.Sprintf("if_r%d", i))
	}
	return b.Bytes()
}

func TestImmediateOperandForms(t *testing.T) {
	var i32s, i64s []uint64
	for _, v := range edgeI32 {
		i32s = append(i32s, uint64(uint32(v)))
	}
	for _, v := range edgeI64 {
		i64s = append(i64s, uint64(v))
	}
	type family struct {
		vt     wasm.ValType
		ops    []wasm.Opcode
		values []uint64
	}
	for _, fam := range []family{{wasm.I32, immOpsI32, i32s}, {wasm.I64, immOpsI64, i64s}} {
		for _, op := range fam.ops {
			bin := immModule(op, fam.vt, fam.values)
			var insts []*Instance
			for _, tier := range []Tier{TierLiftoff, TierTurbofan} {
				m, err := New(Config{Tier: tier}).Compile(bin)
				if err != nil {
					t.Fatalf("%s (%v): compile: %v", op, tier, err)
				}
				inst, err := m.Instantiate(Imports{})
				if err != nil {
					t.Fatal(err)
				}
				insts = append(insts, inst)
			}
			ref := insts[0] // liftoff on register operands is the oracle
			for i, c := range fam.values {
				for _, x := range fam.values {
					wantR := mustCall(t, ref, "reg", x, c)[0]
					wantL := mustCall(t, ref, "reg", c, x)[0]
					for ti, inst := range insts {
						tier := []Tier{TierLiftoff, TierTurbofan}[ti]
						check := func(name string, want uint64) {
							t.Helper()
							if got := mustCall(t, inst, name, x)[0]; got != want {
								t.Errorf("%s %s on %v, x=%#x c=%#x: got %#x, want %#x", op, name, tier, x, c, got, want)
							}
						}
						check(fmt.Sprintf("r%d", i), wantR)
						check(fmt.Sprintf("l%d", i), wantL)
						if isCompare(op) {
							check(fmt.Sprintf("brif_r%d", i), wantR)
							check(fmt.Sprintf("brif_l%d", i), wantL)
							check(fmt.Sprintf("if_r%d", i), wantR)
						}
					}
				}
			}
		}
	}
}

// TestFusedLoadAddressing checks the loads the optimizing tier fuses with
// the address computation feeding them (i32.add of two registers, i32.add
// of a constant, i32.shl by a constant, a constant base): the base wraps to
// 32 bits, the offset is added unwrapped, the last byte of memory reads,
// and one byte past it traps, identically on both tiers.
func TestFusedLoadAddressing(t *testing.T) {
	const memEnd = 1 << 16 // one 64 KiB page
	type load struct {
		name string
		emit func(f *wasm.FuncBuilder, offset uint32)
		size uint32
		res  wasm.ValType
	}
	loads := []load{
		{"u8", (*wasm.FuncBuilder).I32Load8U, 1, wasm.I32},
		{"u16", (*wasm.FuncBuilder).I32Load16U, 2, wasm.I32},
		{"u32", (*wasm.FuncBuilder).I32Load, 4, wasm.I32},
		{"u64", (*wasm.FuncBuilder).I64Load, 8, wasm.I64},
		{"f64", (*wasm.FuncBuilder).F64Load, 8, wasm.F64},
	}
	const offset = 16
	b := wasm.NewModuleBuilder()
	b.AddMemory(1, 1)
	tail := make([]byte, 64)
	for i := range tail {
		tail[i] = byte(0xA0 + i)
	}
	b.AddData(memEnd-uint32(len(tail)), tail)
	for _, ld := range loads {
		ft := func(n int) wasm.FuncType {
			return wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}[:n], Results: []wasm.ValType{ld.res}}
		}
		add := b.NewFunc("", ft(2)) // load offset (x + y)
		add.LocalGet(0)
		add.LocalGet(1)
		add.I32Add()
		ld.emit(add, offset)
		b.Export("add_"+ld.name, wasm.ExternFunc, add.Index)

		addImm := b.NewFunc("", ft(1)) // load offset (x + 0x10000)
		addImm.LocalGet(0)
		addImm.I32Const(0x10000)
		addImm.I32Add()
		ld.emit(addImm, offset)
		b.Export("addimm_"+ld.name, wasm.ExternFunc, addImm.Index)

		shl := b.NewFunc("", ft(1)) // load offset (x << 3)
		shl.LocalGet(0)
		shl.I32Const(35) // shift counts are taken mod 32
		shl.Op(wasm.OpI32Shl)
		ld.emit(shl, offset)
		b.Export("shl_"+ld.name, wasm.ExternFunc, shl.Index)

		for _, past := range []uint32{0, 1} {
			k := b.NewFunc("", ft(0)) // load offset (const)
			k.I32Const(int32(memEnd - ld.size - offset + past))
			ld.emit(k, offset)
			b.Export(fmt.Sprintf("const%d_%s", past, ld.name), wasm.ExternFunc, k.Index)
		}
		// A constant base plus the offset beyond 4 GiB traps rather than
		// wrapping to address 8.
		hi := b.NewFunc("", ft(0))
		hi.I32Const(-8)
		ld.emit(hi, offset)
		b.Export("consthi_"+ld.name, wasm.ExternFunc, hi.Index)
	}
	bin := b.Bytes()

	type outcome struct {
		val uint64
		err string
	}
	run := func(tier Tier, name string, args ...uint64) outcome {
		m, err := New(Config{Tier: tier}).Compile(bin)
		if err != nil {
			t.Fatalf("%v: compile: %v", tier, err)
		}
		inst, err := m.Instantiate(Imports{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := inst.Call(name, args...)
		if err != nil {
			var trap *wmem.Trap
			if !errors.As(err, &trap) {
				t.Fatalf("%v %s%v: want a memory trap, got %v", tier, name, args, err)
			}
			return outcome{err: err.Error()}
		}
		return outcome{val: got[0]}
	}
	for _, ld := range loads {
		last := uint64(memEnd - ld.size - offset) // base of the last valid access
		cases := []struct {
			name  string
			args  []uint64
			traps bool
		}{
			// x + y wraps to the last valid base.
			{"add_", []uint64{0xFFFF_FFF0, last + 0x10}, false},
			{"add_", []uint64{0xFFFF_FFF0, last + 0x11}, true},
			// A base wrapping to 0xFFFFFFFF plus the offset leaves the
			// 32-bit address space instead of wrapping to a low address.
			{"add_", []uint64{0xFFFF_FFFE, 1}, true},
			// x + 0x10000 wraps to the last valid base.
			{"addimm_", []uint64{uint64(uint32(last) - 0x10000)}, false},
			{"addimm_", []uint64{uint64(uint32(last) - 0x10000 + 1)}, true},
			{"shl_", []uint64{(last &^ 7) >> 3}, false},
			{"shl_", []uint64{(last&^7)>>3 | 0xE000_0000}, false}, // high bits shift out
			{"shl_", []uint64{(memEnd - offset) >> 3}, true},
			{"const0_", nil, false},
			{"const1_", nil, true},
			{"consthi_", nil, true},
		}
		for _, c := range cases {
			name := c.name + ld.name
			lo := run(TierLiftoff, name, c.args...)
			tf := run(TierTurbofan, name, c.args...)
			if lo != tf {
				t.Errorf("%s%v: liftoff %+v, turbofan %+v", name, c.args, lo, tf)
			}
			if (lo.err != "") != c.traps {
				t.Errorf("%s%v: outcome %+v, want trap=%v", name, c.args, lo, c.traps)
			}
		}
	}
}

// fuzzProgram generates a random function (x, y i32) → i64 over one page of
// memory that mixes what the optimizing tier rewrites: constant operands,
// local.set/local.tee of computed values, loads whose address is an add,
// an add of a constant, a shift or a constant (some of them out of
// bounds), compares feeding if and br_if, and counted loops.
type fuzzProgram struct {
	rng  *rand.Rand
	f    *wasm.FuncBuilder
	locs []wasm.Local // i32 locals, params first
	acc  wasm.Local   // i64 accumulator, the result
	// ctrs are the loop counters, one per nesting depth; no statement
	// assigns them, so every loop ends.
	ctrs []wasm.Local
}

func (p *fuzzProgram) konst() {
	vals := []int32{0, 1, 2, 3, 7, 8, 31, 32, 33, 0xFFF0, 0x10000, -1, -8, math.MaxInt32, math.MinInt32}
	if p.rng.Intn(3) == 0 {
		p.f.I32Const(int32(p.rng.Uint32()))
		return
	}
	p.f.I32Const(vals[p.rng.Intn(len(vals))])
}

// expr pushes one i32 value.
func (p *fuzzProgram) expr(depth int) {
	if depth <= 0 {
		if p.rng.Intn(2) == 0 {
			p.konst()
		} else {
			p.f.LocalGet(p.locs[p.rng.Intn(len(p.locs))])
		}
		return
	}
	switch p.rng.Intn(7) {
	case 0, 1, 2:
		// A binary op with a constant on one side half of the time.
		ops := append(append([]wasm.Opcode{}, immOpsI32...), wasm.OpI32Rotl, wasm.OpI32DivU)
		op := ops[p.rng.Intn(len(ops))]
		left, right := func() { p.expr(depth - 1) }, func() { p.expr(depth - 1) }
		switch p.rng.Intn(4) {
		case 0:
			left = p.konst
		case 1:
			right = p.konst
		}
		if op == wasm.OpI32DivU { // keep division from trapping
			right = func() { p.expr(depth - 1); p.f.I32Const(1); p.f.I32Or() }
		}
		left()
		right()
		p.f.Op(op)
	case 3:
		p.load(depth)
	case 4:
		// A tee'd value, sometimes carried out of a block as its result.
		block := p.rng.Intn(2) == 0
		if block {
			p.f.Block(wasm.BlockType(wasm.I32))
		}
		p.expr(depth - 1)
		p.f.LocalTee(p.locs[2+p.rng.Intn(len(p.locs)-2)])
		if block {
			p.f.End()
		}
	case 5:
		p.expr(depth - 1)
		p.f.I32Eqz()
	default:
		p.expr(0)
	}
}

// load pushes a load through a randomly shaped address.
func (p *fuzzProgram) load(depth int) {
	switch p.rng.Intn(5) {
	case 0: // (e & 0xFFFF) + e'
		p.expr(depth - 1)
		p.f.I32Const(0xFFFF)
		p.f.I32And()
		p.expr(depth - 1)
		p.f.I32Add()
	case 1: // (e & 0xFFFF) + c
		p.expr(depth - 1)
		p.f.I32Const(0xFFFF)
		p.f.I32And()
		p.konst()
		p.f.I32Add()
	case 2: // (e & 0x3FFF) << 2
		p.expr(depth - 1)
		p.f.I32Const(0x3FFF)
		p.f.I32And()
		p.f.I32Const(int32(2 + 32*p.rng.Intn(2)))
		p.f.Op(wasm.OpI32Shl)
	case 3: // constant address
		p.f.I32Const(int32(p.rng.Intn(1 << 16)))
	default: // e & 0xFFFF
		p.expr(depth - 1)
		p.f.I32Const(0xFFFF)
		p.f.I32And()
	}
	offset := uint32(p.rng.Intn(16))
	switch p.rng.Intn(5) {
	case 0:
		p.f.I32Load8U(offset)
	case 1:
		p.f.I32Load16U(offset)
	case 2:
		p.f.I32Load8S(offset)
	case 3:
		p.f.I64Load(offset)
		p.f.Op(wasm.OpI32WrapI64)
	default:
		p.f.I32Load(offset)
	}
}

// stmt emits one statement; at depth 0, one without nested statements.
func (p *fuzzProgram) stmt(depth int) {
	kinds := 6
	if depth <= 0 {
		kinds = 3
	}
	switch p.rng.Intn(kinds) {
	case 0, 1:
		p.expr(depth)
		p.f.LocalSet(p.locs[2+p.rng.Intn(len(p.locs)-2)])
	case 2:
		p.f.LocalGet(p.acc)
		p.expr(depth)
		p.f.Op(wasm.OpI64ExtendI32U)
		p.f.I64Add()
		p.f.LocalSet(p.acc)
	case 3: // if (a cmp b) stmt else stmt
		p.f.LocalGet(p.locs[p.rng.Intn(len(p.locs))])
		p.konst()
		p.f.Op(immOpsI32[9+p.rng.Intn(10)])
		p.f.If(wasm.BlockVoid)
		p.stmt(depth - 1)
		p.f.Else()
		p.stmt(depth - 1)
		p.f.End()
	case 4: // i = 0; while i <u K { stmt; i++ }
		i := p.ctrs[depth]
		p.f.I32Const(0)
		p.f.LocalSet(i)
		p.f.Block(wasm.BlockVoid)
		p.f.Loop(wasm.BlockVoid)
		p.f.LocalGet(i)
		p.f.I32Const(int32(1 + p.rng.Intn(6)))
		p.f.I32GeU()
		p.f.BrIf(1)
		p.stmt(depth - 1)
		p.f.LocalGet(p.acc)
		p.f.LocalGet(i)
		p.f.Op(wasm.OpI64ExtendI32U)
		p.f.I64Add()
		p.f.LocalSet(p.acc)
		p.f.LocalGet(i)
		p.f.I32Const(1)
		p.f.I32Add()
		p.f.LocalSet(i)
		p.f.Br(0)
		p.f.End()
		p.f.End()
	default: // block { br_if (a cmp c) out; stmt }
		p.f.Block(wasm.BlockVoid)
		p.konst()
		p.expr(depth - 1)
		p.f.Op(immOpsI32[9+p.rng.Intn(10)])
		p.f.BrIf(0)
		p.stmt(depth - 1)
		p.f.End()
	}
}

// TestRandomProgramsDifferential runs random programs on both tiers and
// requires the same result, or the same trap.
func TestRandomProgramsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	mem := make([]byte, 1<<16)
	rng.Read(mem)
	for trial := 0; trial < 300; trial++ {
		b := wasm.NewModuleBuilder()
		b.AddMemory(1, 1)
		b.AddData(0, mem)
		f := b.NewFunc("f", wasm.FuncType{Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I64}})
		p := &fuzzProgram{rng: rng, f: f, locs: []wasm.Local{f.Param(0), f.Param(1)}}
		for k := 0; k < 4; k++ {
			p.locs = append(p.locs, f.AddLocal(wasm.I32))
		}
		p.acc = f.AddLocal(wasm.I64)
		for k := 0; k <= 3; k++ {
			p.ctrs = append(p.ctrs, f.AddLocal(wasm.I32))
		}
		for s := 0; s < 2+rng.Intn(6); s++ {
			p.stmt(3)
		}
		f.LocalGet(p.acc)
		b.Export("f", wasm.ExternFunc, f.Index)
		bin := b.Bytes()
		var insts []*Instance
		for _, tier := range []Tier{TierLiftoff, TierTurbofan} {
			m, err := New(Config{Tier: tier}).Compile(bin)
			if err != nil {
				t.Fatalf("trial %d %v: compile: %v", trial, tier, err)
			}
			inst, err := m.Instantiate(Imports{})
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, inst)
		}
		for probe := 0; probe < 4; probe++ {
			x, y := uint64(rng.Uint32()), uint64(rng.Uint32()&0xFFFF)
			var outs [2]string
			for k, inst := range insts {
				if got, err := inst.Call("f", x, y); err != nil {
					outs[k] = "trap: " + err.Error()
				} else {
					outs[k] = fmt.Sprintf("%#x", got[0])
				}
			}
			if outs[0] != outs[1] {
				t.Fatalf("trial %d f(%#x, %#x): liftoff %s, turbofan %s", trial, x, y, outs[0], outs[1])
			}
		}
	}
}

// TestFloatCompareBranches runs every float comparison fused with br_if
// (branch when it holds) and with if (branch when it fails) on both tiers,
// over operands where NaN makes "fails" differ from the opposite
// comparison.
func TestFloatCompareBranches(t *testing.T) {
	f32 := func(x float32) uint64 { return uint64(math.Float32bits(x)) }
	f64 := math.Float64bits
	nan32, nan64 := float32(math.NaN()), math.NaN()
	for _, fam := range []struct {
		vt     wasm.ValType
		first  wasm.Opcode
		values []uint64
	}{
		{wasm.F32, wasm.OpF32Eq, []uint64{f32(0), f32(float32(math.Copysign(0, -1))), f32(1), f32(-1), f32(nan32), f32(float32(math.Inf(1)))}},
		{wasm.F64, wasm.OpF64Eq, []uint64{f64(0), f64(math.Copysign(0, -1)), f64(1), f64(-1), f64(nan64), f64(math.Inf(1))}},
	} {
		for op := fam.first; op < fam.first+6; op++ {
			b := wasm.NewModuleBuilder()
			binary := wasm.FuncType{Params: []wasm.ValType{fam.vt, fam.vt}, Results: []wasm.ValType{wasm.I32}}
			reg := b.NewFunc("", binary)
			reg.LocalGet(0)
			reg.LocalGet(1)
			reg.Op(op)
			b.Export("reg", wasm.ExternFunc, reg.Index)
			br := b.NewFunc("", binary)
			br.Block(wasm.BlockType(wasm.I32))
			br.I32Const(1)
			br.LocalGet(0)
			br.LocalGet(1)
			br.Op(op)
			br.BrIf(0)
			br.Drop()
			br.I32Const(0)
			br.End()
			b.Export("brif", wasm.ExternFunc, br.Index)
			iff := b.NewFunc("", binary)
			iff.LocalGet(0)
			iff.LocalGet(1)
			iff.Op(op)
			iff.If(wasm.BlockType(wasm.I32))
			iff.I32Const(1)
			iff.Else()
			iff.I32Const(0)
			iff.End()
			b.Export("if", wasm.ExternFunc, iff.Index)
			bin := b.Bytes()
			var insts []*Instance
			for _, tier := range []Tier{TierLiftoff, TierTurbofan} {
				m, err := New(Config{Tier: tier}).Compile(bin)
				if err != nil {
					t.Fatalf("%s (%v): compile: %v", op, tier, err)
				}
				inst, err := m.Instantiate(Imports{})
				if err != nil {
					t.Fatal(err)
				}
				insts = append(insts, inst)
			}
			for _, x := range fam.values {
				for _, y := range fam.values {
					want := mustCall(t, insts[0], "reg", x, y)[0]
					for ti, inst := range insts {
						for _, name := range []string{"brif", "if"} {
							if got := mustCall(t, inst, name, x, y)[0]; got != want {
								t.Errorf("%s %s on tier %d, (%#x, %#x): got %d, want %d", op, name, ti, x, y, got, want)
							}
						}
					}
				}
			}
		}
	}
}
