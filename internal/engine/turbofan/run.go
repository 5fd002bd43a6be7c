package turbofan

import (
	"math"
	"math/bits"

	"wasmdb/internal/engine/rt"
	"wasmdb/internal/wasm"
)

// Call executes the compiled function, implementing rt.Callee. All registers
// (locals followed by stack slots) live in a frame carved from the shared
// arena.
func (c *Code) Call(env *rt.Env, args, res []uint64) {
	env.Enter()
	frame := env.Frame(c.NLocals + c.MaxStack)
	copy(frame, args[:c.NParams])
	c.run(env, frame)
	copy(res, frame[c.NLocals:c.NLocals+c.NResults])
	env.PopFrame(c.NLocals + c.MaxStack)
	env.Exit()
}

func (c *Code) run(env *rt.Env, regs []uint64) {
	mem := env.Mem
	var pages [][]byte
	if mem != nil {
		pages = mem.PageSlice()
	}
	ins := c.ins
	pc := 0
	for {
		t := ins[pc]
		switch t.op {
		case tMove:
			regs[t.d] = regs[t.a]
		case uint16(wasm.OpI32Const), uint16(wasm.OpI64Const),
			uint16(wasm.OpF32Const), uint16(wasm.OpF64Const):
			regs[t.d] = t.imm
		case tJump:
			goto branch
		case tJumpIfZero:
			if regs[t.a] == 0 {
				goto branch
			}
		case tJumpIfNot:
			if regs[t.a] != 0 {
				goto branch
			}
		case tRet:
			return
		case tUnreachable:
			rt.Trap("unreachable executed")
		case tBrTable:
			tbl := c.tables[t.imm]
			i := int(uint32(regs[t.a]))
			if i >= len(tbl)-1 {
				i = len(tbl) - 1
			}
			if env.Metered && int(tbl[i]) <= pc {
				env.UseFuel(1)
			}
			pc = int(tbl[i])
			continue
		case tCall:
			np, nr := int(t.b>>16), int(t.b&0xFFFF)
			env.Funcs[t.imm].Call(env, regs[t.a:t.a+int32(np)], regs[t.a:t.a+int32(nr)])
			if mem != nil {
				pages = mem.PageSlice()
			}
		case tCallIndirect:
			np, nr := int(t.b>>16), int(t.b&0xFFFF)
			ti := uint32(regs[t.a+int32(np)])
			if ti >= uint32(len(env.Table)) {
				rt.Trap("undefined element in call_indirect")
			}
			fi := env.Table[ti]
			if fi == ^uint32(0) {
				rt.Trap("uninitialized element in call_indirect")
			}
			if !env.Types[env.FuncTypes[fi]].Equal(env.Types[t.imm]) {
				rt.Trap("indirect call type mismatch")
			}
			env.Funcs[fi].Call(env, regs[t.a:t.a+int32(np)], regs[t.a:t.a+int32(nr)])
			if mem != nil {
				pages = mem.PageSlice()
			}
		case tSelect:
			if regs[t.imm] != 0 {
				regs[t.d] = regs[t.a]
			} else {
				regs[t.d] = regs[t.b]
			}
		case tGlobalGet:
			regs[t.d] = env.Globals[t.imm]
		case tGlobalSet:
			env.Globals[t.imm] = regs[t.a]
		case tMemorySize:
			regs[t.d] = uint64(mem.Pages())
		case tMemoryGrow:
			regs[t.d] = uint64(uint32(mem.Grow(uint32(regs[t.a]))))
			pages = mem.PageSlice()

		// Memory.
		case uint16(wasm.OpI32Load):
			regs[t.d] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 4)))
		case uint16(wasm.OpI64Load):
			regs[t.d] = rt.LdU64(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 8))
		case uint16(wasm.OpF32Load):
			regs[t.d] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 4)))
		case uint16(wasm.OpF64Load):
			regs[t.d] = rt.LdU64(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 8))
		case uint16(wasm.OpI32Load8S):
			regs[t.d] = uint64(uint32(int32(int8(rt.LdU8(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 1))))))
		case uint16(wasm.OpI32Load8U):
			regs[t.d] = uint64(rt.LdU8(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 1)))
		case uint16(wasm.OpI32Load16S):
			regs[t.d] = uint64(uint32(int32(int16(rt.LdU16(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 2))))))
		case uint16(wasm.OpI32Load16U):
			regs[t.d] = uint64(rt.LdU16(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 2)))
		case uint16(wasm.OpI64Load8S):
			regs[t.d] = uint64(int64(int8(rt.LdU8(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 1)))))
		case uint16(wasm.OpI64Load8U):
			regs[t.d] = uint64(rt.LdU8(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 1)))
		case uint16(wasm.OpI64Load16S):
			regs[t.d] = uint64(int64(int16(rt.LdU16(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 2)))))
		case uint16(wasm.OpI64Load16U):
			regs[t.d] = uint64(rt.LdU16(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 2)))
		case uint16(wasm.OpI64Load32S):
			regs[t.d] = uint64(int64(int32(rt.LdU32(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 4)))))
		case uint16(wasm.OpI64Load32U):
			regs[t.d] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 4)))
		case uint16(wasm.OpI32Store), uint16(wasm.OpF32Store):
			rt.StU32(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 4), uint32(regs[t.b]))
		case uint16(wasm.OpI64Store), uint16(wasm.OpF64Store):
			rt.StU64(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 8), regs[t.b])
		case uint16(wasm.OpI32Store8), uint16(wasm.OpI64Store8):
			rt.StU8(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 1), byte(regs[t.b]))
		case uint16(wasm.OpI32Store16), uint16(wasm.OpI64Store16):
			rt.StU16(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 2), uint16(regs[t.b]))
		case uint16(wasm.OpI64Store32):
			rt.StU32(pages, mem, rt.CheckAddr(regs[t.a], t.imm, 4), uint32(regs[t.b]))

		// i32 comparisons.
		case uint16(wasm.OpI32Eqz):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) == 0)
		case uint16(wasm.OpI32Eq):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) == uint32(regs[t.b]))
		case uint16(wasm.OpI32Ne):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) != uint32(regs[t.b]))
		case uint16(wasm.OpI32LtS):
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) < int32(uint32(regs[t.b])))
		case uint16(wasm.OpI32LtU):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) < uint32(regs[t.b]))
		case uint16(wasm.OpI32GtS):
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) > int32(uint32(regs[t.b])))
		case uint16(wasm.OpI32GtU):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) > uint32(regs[t.b]))
		case uint16(wasm.OpI32LeS):
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) <= int32(uint32(regs[t.b])))
		case uint16(wasm.OpI32LeU):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) <= uint32(regs[t.b]))
		case uint16(wasm.OpI32GeS):
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) >= int32(uint32(regs[t.b])))
		case uint16(wasm.OpI32GeU):
			regs[t.d] = rt.B2i(uint32(regs[t.a]) >= uint32(regs[t.b]))

		// i64 comparisons.
		case uint16(wasm.OpI64Eqz):
			regs[t.d] = rt.B2i(regs[t.a] == 0)
		case uint16(wasm.OpI64Eq):
			regs[t.d] = rt.B2i(regs[t.a] == regs[t.b])
		case uint16(wasm.OpI64Ne):
			regs[t.d] = rt.B2i(regs[t.a] != regs[t.b])
		case uint16(wasm.OpI64LtS):
			regs[t.d] = rt.B2i(int64(regs[t.a]) < int64(regs[t.b]))
		case uint16(wasm.OpI64LtU):
			regs[t.d] = rt.B2i(regs[t.a] < regs[t.b])
		case uint16(wasm.OpI64GtS):
			regs[t.d] = rt.B2i(int64(regs[t.a]) > int64(regs[t.b]))
		case uint16(wasm.OpI64GtU):
			regs[t.d] = rt.B2i(regs[t.a] > regs[t.b])
		case uint16(wasm.OpI64LeS):
			regs[t.d] = rt.B2i(int64(regs[t.a]) <= int64(regs[t.b]))
		case uint16(wasm.OpI64LeU):
			regs[t.d] = rt.B2i(regs[t.a] <= regs[t.b])
		case uint16(wasm.OpI64GeS):
			regs[t.d] = rt.B2i(int64(regs[t.a]) >= int64(regs[t.b]))
		case uint16(wasm.OpI64GeU):
			regs[t.d] = rt.B2i(regs[t.a] >= regs[t.b])

		// Float comparisons.
		case uint16(wasm.OpF32Eq):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) == rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Ne):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) != rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Lt):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) < rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Gt):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) > rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Le):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) <= rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Ge):
			regs[t.d] = rt.B2i(rt.F32(regs[t.a]) >= rt.F32(regs[t.b]))
		case uint16(wasm.OpF64Eq):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) == rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Ne):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) != rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Lt):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) < rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Gt):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) > rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Le):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) <= rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Ge):
			regs[t.d] = rt.B2i(rt.F64(regs[t.a]) >= rt.F64(regs[t.b]))

		// i32 numerics.
		case uint16(wasm.OpI32Add):
			regs[t.d] = uint64(uint32(regs[t.a]) + uint32(regs[t.b]))
		case uint16(wasm.OpI32Sub):
			regs[t.d] = uint64(uint32(regs[t.a]) - uint32(regs[t.b]))
		case uint16(wasm.OpI32Mul):
			regs[t.d] = uint64(uint32(regs[t.a]) * uint32(regs[t.b]))
		case uint16(wasm.OpI32DivS):
			regs[t.d] = rt.I32DivS(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32DivU):
			regs[t.d] = rt.I32DivU(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32RemS):
			regs[t.d] = rt.I32RemS(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32RemU):
			regs[t.d] = rt.I32RemU(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32And):
			regs[t.d] = uint64(uint32(regs[t.a]) & uint32(regs[t.b]))
		case uint16(wasm.OpI32Or):
			regs[t.d] = uint64(uint32(regs[t.a]) | uint32(regs[t.b]))
		case uint16(wasm.OpI32Xor):
			regs[t.d] = uint64(uint32(regs[t.a]) ^ uint32(regs[t.b]))
		case uint16(wasm.OpI32Shl):
			regs[t.d] = uint64(uint32(regs[t.a]) << (regs[t.b] & 31))
		case uint16(wasm.OpI32ShrS):
			regs[t.d] = uint64(uint32(int32(uint32(regs[t.a])) >> (regs[t.b] & 31)))
		case uint16(wasm.OpI32ShrU):
			regs[t.d] = uint64(uint32(regs[t.a]) >> (regs[t.b] & 31))
		case uint16(wasm.OpI32Rotl):
			regs[t.d] = rt.Rotl32(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32Rotr):
			regs[t.d] = rt.Rotr32(regs[t.a], regs[t.b])
		case uint16(wasm.OpI32Clz):
			regs[t.d] = uint64(bits.LeadingZeros32(uint32(regs[t.a])))
		case uint16(wasm.OpI32Ctz):
			regs[t.d] = uint64(bits.TrailingZeros32(uint32(regs[t.a])))
		case uint16(wasm.OpI32Popcnt):
			regs[t.d] = uint64(bits.OnesCount32(uint32(regs[t.a])))

		// i64 numerics.
		case uint16(wasm.OpI64Add):
			regs[t.d] = regs[t.a] + regs[t.b]
		case uint16(wasm.OpI64Sub):
			regs[t.d] = regs[t.a] - regs[t.b]
		case uint16(wasm.OpI64Mul):
			regs[t.d] = regs[t.a] * regs[t.b]
		case uint16(wasm.OpI64DivS):
			regs[t.d] = rt.I64DivS(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64DivU):
			regs[t.d] = rt.I64DivU(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64RemS):
			regs[t.d] = rt.I64RemS(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64RemU):
			regs[t.d] = rt.I64RemU(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64And):
			regs[t.d] = regs[t.a] & regs[t.b]
		case uint16(wasm.OpI64Or):
			regs[t.d] = regs[t.a] | regs[t.b]
		case uint16(wasm.OpI64Xor):
			regs[t.d] = regs[t.a] ^ regs[t.b]
		case uint16(wasm.OpI64Shl):
			regs[t.d] = regs[t.a] << (regs[t.b] & 63)
		case uint16(wasm.OpI64ShrS):
			regs[t.d] = uint64(int64(regs[t.a]) >> (regs[t.b] & 63))
		case uint16(wasm.OpI64ShrU):
			regs[t.d] = regs[t.a] >> (regs[t.b] & 63)
		case uint16(wasm.OpI64Rotl):
			regs[t.d] = rt.Rotl64(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64Rotr):
			regs[t.d] = rt.Rotr64(regs[t.a], regs[t.b])
		case uint16(wasm.OpI64Clz):
			regs[t.d] = uint64(bits.LeadingZeros64(regs[t.a]))
		case uint16(wasm.OpI64Ctz):
			regs[t.d] = uint64(bits.TrailingZeros64(regs[t.a]))
		case uint16(wasm.OpI64Popcnt):
			regs[t.d] = uint64(bits.OnesCount64(regs[t.a]))

		// f32 numerics.
		case uint16(wasm.OpF32Abs):
			regs[t.d] = uint64(uint32(regs[t.a]) &^ 0x80000000)
		case uint16(wasm.OpF32Neg):
			regs[t.d] = uint64(uint32(regs[t.a]) ^ 0x80000000)
		case uint16(wasm.OpF32Ceil):
			regs[t.d] = rt.F32Bits(float32(math.Ceil(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Floor):
			regs[t.d] = rt.F32Bits(float32(math.Floor(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Trunc):
			regs[t.d] = rt.F32Bits(float32(math.Trunc(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Nearest):
			regs[t.d] = rt.F32Bits(float32(math.RoundToEven(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Sqrt):
			regs[t.d] = rt.F32Bits(float32(math.Sqrt(float64(rt.F32(regs[t.a])))))
		case uint16(wasm.OpF32Add):
			regs[t.d] = rt.F32Bits(rt.F32(regs[t.a]) + rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Sub):
			regs[t.d] = rt.F32Bits(rt.F32(regs[t.a]) - rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Mul):
			regs[t.d] = rt.F32Bits(rt.F32(regs[t.a]) * rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Div):
			regs[t.d] = rt.F32Bits(rt.F32(regs[t.a]) / rt.F32(regs[t.b]))
		case uint16(wasm.OpF32Min):
			regs[t.d] = rt.F32Bits(rt.FMin32(rt.F32(regs[t.a]), rt.F32(regs[t.b])))
		case uint16(wasm.OpF32Max):
			regs[t.d] = rt.F32Bits(rt.FMax32(rt.F32(regs[t.a]), rt.F32(regs[t.b])))
		case uint16(wasm.OpF32Copysign):
			regs[t.d] = rt.F32Bits(float32(math.Copysign(float64(rt.F32(regs[t.a])), float64(rt.F32(regs[t.b])))))

		// f64 numerics.
		case uint16(wasm.OpF64Abs):
			regs[t.d] = regs[t.a] &^ 0x8000000000000000
		case uint16(wasm.OpF64Neg):
			regs[t.d] = regs[t.a] ^ 0x8000000000000000
		case uint16(wasm.OpF64Ceil):
			regs[t.d] = rt.F64Bits(math.Ceil(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Floor):
			regs[t.d] = rt.F64Bits(math.Floor(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Trunc):
			regs[t.d] = rt.F64Bits(math.Trunc(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Nearest):
			regs[t.d] = rt.F64Bits(math.RoundToEven(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Sqrt):
			regs[t.d] = rt.F64Bits(math.Sqrt(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64Add):
			regs[t.d] = rt.F64Bits(rt.F64(regs[t.a]) + rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Sub):
			regs[t.d] = rt.F64Bits(rt.F64(regs[t.a]) - rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Mul):
			regs[t.d] = rt.F64Bits(rt.F64(regs[t.a]) * rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Div):
			regs[t.d] = rt.F64Bits(rt.F64(regs[t.a]) / rt.F64(regs[t.b]))
		case uint16(wasm.OpF64Min):
			regs[t.d] = rt.F64Bits(rt.FMin64(rt.F64(regs[t.a]), rt.F64(regs[t.b])))
		case uint16(wasm.OpF64Max):
			regs[t.d] = rt.F64Bits(rt.FMax64(rt.F64(regs[t.a]), rt.F64(regs[t.b])))
		case uint16(wasm.OpF64Copysign):
			regs[t.d] = rt.F64Bits(math.Copysign(rt.F64(regs[t.a]), rt.F64(regs[t.b])))

		// Conversions.
		case uint16(wasm.OpI32WrapI64):
			regs[t.d] = uint64(uint32(regs[t.a]))
		case uint16(wasm.OpI32TruncF32S):
			regs[t.d] = rt.TruncF32ToI32S(regs[t.a])
		case uint16(wasm.OpI32TruncF32U):
			regs[t.d] = rt.TruncF32ToI32U(regs[t.a])
		case uint16(wasm.OpI32TruncF64S):
			regs[t.d] = rt.TruncF64ToI32S(regs[t.a])
		case uint16(wasm.OpI32TruncF64U):
			regs[t.d] = rt.TruncF64ToI32U(regs[t.a])
		case uint16(wasm.OpI64ExtendI32S):
			regs[t.d] = uint64(int64(int32(uint32(regs[t.a]))))
		case uint16(wasm.OpI64ExtendI32U):
			regs[t.d] = uint64(uint32(regs[t.a]))
		case uint16(wasm.OpI64TruncF32S):
			regs[t.d] = rt.TruncF32ToI64S(regs[t.a])
		case uint16(wasm.OpI64TruncF32U):
			regs[t.d] = rt.TruncF32ToI64U(regs[t.a])
		case uint16(wasm.OpI64TruncF64S):
			regs[t.d] = rt.TruncF64ToI64S(regs[t.a])
		case uint16(wasm.OpI64TruncF64U):
			regs[t.d] = rt.TruncF64ToI64U(regs[t.a])
		case uint16(wasm.OpF32ConvertI32S):
			regs[t.d] = rt.F32Bits(float32(int32(uint32(regs[t.a]))))
		case uint16(wasm.OpF32ConvertI32U):
			regs[t.d] = rt.F32Bits(float32(uint32(regs[t.a])))
		case uint16(wasm.OpF32ConvertI64S):
			regs[t.d] = rt.F32Bits(float32(int64(regs[t.a])))
		case uint16(wasm.OpF32ConvertI64U):
			regs[t.d] = rt.F32Bits(float32(regs[t.a]))
		case uint16(wasm.OpF32DemoteF64):
			regs[t.d] = rt.F32Bits(float32(rt.F64(regs[t.a])))
		case uint16(wasm.OpF64ConvertI32S):
			regs[t.d] = rt.F64Bits(float64(int32(uint32(regs[t.a]))))
		case uint16(wasm.OpF64ConvertI32U):
			regs[t.d] = rt.F64Bits(float64(uint32(regs[t.a])))
		case uint16(wasm.OpF64ConvertI64S):
			regs[t.d] = rt.F64Bits(float64(int64(regs[t.a])))
		case uint16(wasm.OpF64ConvertI64U):
			regs[t.d] = rt.F64Bits(float64(regs[t.a]))
		case uint16(wasm.OpF64PromoteF32):
			regs[t.d] = rt.F64Bits(float64(rt.F32(regs[t.a])))
		case uint16(wasm.OpI32ReinterpretF32), uint16(wasm.OpI64ReinterpretF64),
			uint16(wasm.OpF32ReinterpretI32), uint16(wasm.OpF64ReinterpretI64):
			regs[t.d] = regs[t.a]
		case uint16(wasm.OpI32Extend8S):
			regs[t.d] = uint64(uint32(int32(int8(uint8(regs[t.a])))))
		case uint16(wasm.OpI32Extend16S):
			regs[t.d] = uint64(uint32(int32(int16(uint16(regs[t.a])))))
		case uint16(wasm.OpI64Extend8S):
			regs[t.d] = uint64(int64(int8(uint8(regs[t.a]))))
		case uint16(wasm.OpI64Extend16S):
			regs[t.d] = uint64(int64(int16(uint16(regs[t.a]))))
		case uint16(wasm.OpI64Extend32S):
			regs[t.d] = uint64(int64(int32(uint32(regs[t.a]))))

		// Compare-and-branch, register operands.
		case tBrCmp + cmpI32Eq:
			if uint32(regs[t.a]) == uint32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI32Ne:
			if uint32(regs[t.a]) != uint32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI32LtS:
			if int32(uint32(regs[t.a])) < int32(uint32(regs[t.b])) {
				goto branch
			}
		case tBrCmp + cmpI32LtU:
			if uint32(regs[t.a]) < uint32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI32GtS:
			if int32(uint32(regs[t.a])) > int32(uint32(regs[t.b])) {
				goto branch
			}
		case tBrCmp + cmpI32GtU:
			if uint32(regs[t.a]) > uint32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI32LeS:
			if int32(uint32(regs[t.a])) <= int32(uint32(regs[t.b])) {
				goto branch
			}
		case tBrCmp + cmpI32LeU:
			if uint32(regs[t.a]) <= uint32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI32GeS:
			if int32(uint32(regs[t.a])) >= int32(uint32(regs[t.b])) {
				goto branch
			}
		case tBrCmp + cmpI32GeU:
			if uint32(regs[t.a]) >= uint32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI64Eq:
			if regs[t.a] == regs[t.b] {
				goto branch
			}
		case tBrCmp + cmpI64Ne:
			if regs[t.a] != regs[t.b] {
				goto branch
			}
		case tBrCmp + cmpI64LtS:
			if int64(regs[t.a]) < int64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI64LtU:
			if regs[t.a] < regs[t.b] {
				goto branch
			}
		case tBrCmp + cmpI64GtS:
			if int64(regs[t.a]) > int64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI64GtU:
			if regs[t.a] > regs[t.b] {
				goto branch
			}
		case tBrCmp + cmpI64LeS:
			if int64(regs[t.a]) <= int64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI64LeU:
			if regs[t.a] <= regs[t.b] {
				goto branch
			}
		case tBrCmp + cmpI64GeS:
			if int64(regs[t.a]) >= int64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpI64GeU:
			if regs[t.a] >= regs[t.b] {
				goto branch
			}
		case tBrCmp + cmpF32Eq:
			if rt.F32(regs[t.a]) == rt.F32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF32Ne:
			if rt.F32(regs[t.a]) != rt.F32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF32Lt:
			if rt.F32(regs[t.a]) < rt.F32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF32Gt:
			if rt.F32(regs[t.a]) > rt.F32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF32Le:
			if rt.F32(regs[t.a]) <= rt.F32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF32Ge:
			if rt.F32(regs[t.a]) >= rt.F32(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF64Eq:
			if rt.F64(regs[t.a]) == rt.F64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF64Ne:
			if rt.F64(regs[t.a]) != rt.F64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF64Lt:
			if rt.F64(regs[t.a]) < rt.F64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF64Gt:
			if rt.F64(regs[t.a]) > rt.F64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF64Le:
			if rt.F64(regs[t.a]) <= rt.F64(regs[t.b]) {
				goto branch
			}
		case tBrCmp + cmpF64Ge:
			if rt.F64(regs[t.a]) >= rt.F64(regs[t.b]) {
				goto branch
			}
		case tBrCmpNot + cmpF32Eq - cmpF32Eq:
			if !(rt.F32(regs[t.a]) == rt.F32(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF32Ne - cmpF32Eq:
			if !(rt.F32(regs[t.a]) != rt.F32(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF32Lt - cmpF32Eq:
			if !(rt.F32(regs[t.a]) < rt.F32(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF32Gt - cmpF32Eq:
			if !(rt.F32(regs[t.a]) > rt.F32(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF32Le - cmpF32Eq:
			if !(rt.F32(regs[t.a]) <= rt.F32(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF32Ge - cmpF32Eq:
			if !(rt.F32(regs[t.a]) >= rt.F32(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF64Eq - cmpF32Eq:
			if !(rt.F64(regs[t.a]) == rt.F64(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF64Ne - cmpF32Eq:
			if !(rt.F64(regs[t.a]) != rt.F64(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF64Lt - cmpF32Eq:
			if !(rt.F64(regs[t.a]) < rt.F64(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF64Gt - cmpF32Eq:
			if !(rt.F64(regs[t.a]) > rt.F64(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF64Le - cmpF32Eq:
			if !(rt.F64(regs[t.a]) <= rt.F64(regs[t.b])) {
				goto branch
			}
		case tBrCmpNot + cmpF64Ge - cmpF32Eq:
			if !(rt.F64(regs[t.a]) >= rt.F64(regs[t.b])) {
				goto branch
			}

		// Compare-and-branch, immediate right operand.
		case tBrCmpImm + cmpI32Eq:
			if uint32(regs[t.a]) == uint32(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI32Ne:
			if uint32(regs[t.a]) != uint32(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI32LtS:
			if int32(uint32(regs[t.a])) < int32(uint32(t.imm)) {
				goto branch
			}
		case tBrCmpImm + cmpI32LtU:
			if uint32(regs[t.a]) < uint32(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI32GtS:
			if int32(uint32(regs[t.a])) > int32(uint32(t.imm)) {
				goto branch
			}
		case tBrCmpImm + cmpI32GtU:
			if uint32(regs[t.a]) > uint32(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI32LeS:
			if int32(uint32(regs[t.a])) <= int32(uint32(t.imm)) {
				goto branch
			}
		case tBrCmpImm + cmpI32LeU:
			if uint32(regs[t.a]) <= uint32(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI32GeS:
			if int32(uint32(regs[t.a])) >= int32(uint32(t.imm)) {
				goto branch
			}
		case tBrCmpImm + cmpI32GeU:
			if uint32(regs[t.a]) >= uint32(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI64Eq:
			if regs[t.a] == t.imm {
				goto branch
			}
		case tBrCmpImm + cmpI64Ne:
			if regs[t.a] != t.imm {
				goto branch
			}
		case tBrCmpImm + cmpI64LtS:
			if int64(regs[t.a]) < int64(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI64LtU:
			if regs[t.a] < t.imm {
				goto branch
			}
		case tBrCmpImm + cmpI64GtS:
			if int64(regs[t.a]) > int64(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI64GtU:
			if regs[t.a] > t.imm {
				goto branch
			}
		case tBrCmpImm + cmpI64LeS:
			if int64(regs[t.a]) <= int64(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI64LeU:
			if regs[t.a] <= t.imm {
				goto branch
			}
		case tBrCmpImm + cmpI64GeS:
			if int64(regs[t.a]) >= int64(t.imm) {
				goto branch
			}
		case tBrCmpImm + cmpI64GeU:
			if regs[t.a] >= t.imm {
				goto branch
			}

		// Comparisons, immediate right operand.
		case tCmpImm + cmpI32Eq:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) == uint32(t.imm))
		case tCmpImm + cmpI32Ne:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) != uint32(t.imm))
		case tCmpImm + cmpI32LtS:
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) < int32(uint32(t.imm)))
		case tCmpImm + cmpI32LtU:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) < uint32(t.imm))
		case tCmpImm + cmpI32GtS:
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) > int32(uint32(t.imm)))
		case tCmpImm + cmpI32GtU:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) > uint32(t.imm))
		case tCmpImm + cmpI32LeS:
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) <= int32(uint32(t.imm)))
		case tCmpImm + cmpI32LeU:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) <= uint32(t.imm))
		case tCmpImm + cmpI32GeS:
			regs[t.d] = rt.B2i(int32(uint32(regs[t.a])) >= int32(uint32(t.imm)))
		case tCmpImm + cmpI32GeU:
			regs[t.d] = rt.B2i(uint32(regs[t.a]) >= uint32(t.imm))
		case tCmpImm + cmpI64Eq:
			regs[t.d] = rt.B2i(regs[t.a] == t.imm)
		case tCmpImm + cmpI64Ne:
			regs[t.d] = rt.B2i(regs[t.a] != t.imm)
		case tCmpImm + cmpI64LtS:
			regs[t.d] = rt.B2i(int64(regs[t.a]) < int64(t.imm))
		case tCmpImm + cmpI64LtU:
			regs[t.d] = rt.B2i(regs[t.a] < t.imm)
		case tCmpImm + cmpI64GtS:
			regs[t.d] = rt.B2i(int64(regs[t.a]) > int64(t.imm))
		case tCmpImm + cmpI64GtU:
			regs[t.d] = rt.B2i(regs[t.a] > t.imm)
		case tCmpImm + cmpI64LeS:
			regs[t.d] = rt.B2i(int64(regs[t.a]) <= int64(t.imm))
		case tCmpImm + cmpI64LeU:
			regs[t.d] = rt.B2i(regs[t.a] <= t.imm)
		case tCmpImm + cmpI64GeS:
			regs[t.d] = rt.B2i(int64(regs[t.a]) >= int64(t.imm))
		case tCmpImm + cmpI64GeU:
			regs[t.d] = rt.B2i(regs[t.a] >= t.imm)

		// Register-immediate arithmetic.
		case tI32AddImm:
			regs[t.d] = uint64(uint32(regs[t.a]) + uint32(t.imm))
		case tI32MulImm:
			regs[t.d] = uint64(uint32(regs[t.a]) * uint32(t.imm))
		case tI32AndImm:
			regs[t.d] = uint64(uint32(regs[t.a]) & uint32(t.imm))
		case tI32OrImm:
			regs[t.d] = uint64(uint32(regs[t.a]) | uint32(t.imm))
		case tI32XorImm:
			regs[t.d] = uint64(uint32(regs[t.a]) ^ uint32(t.imm))
		case tI32ShlImm:
			regs[t.d] = uint64(uint32(regs[t.a]) << (t.imm & 31))
		case tI32ShrSImm:
			regs[t.d] = uint64(uint32(int32(uint32(regs[t.a])) >> (t.imm & 31)))
		case tI32ShrUImm:
			regs[t.d] = uint64(uint32(regs[t.a]) >> (t.imm & 31))
		case tI64AddImm:
			regs[t.d] = regs[t.a] + t.imm
		case tI64MulImm:
			regs[t.d] = regs[t.a] * t.imm
		case tI64AndImm:
			regs[t.d] = regs[t.a] & t.imm
		case tI64OrImm:
			regs[t.d] = regs[t.a] | t.imm
		case tI64XorImm:
			regs[t.d] = regs[t.a] ^ t.imm
		case tI64ShlImm:
			regs[t.d] = regs[t.a] << (t.imm & 63)
		case tI64ShrSImm:
			regs[t.d] = uint64(int64(regs[t.a]) >> (t.imm & 63))
		case tI64ShrUImm:
			regs[t.d] = regs[t.a] >> (t.imm & 63)

		// Fused address-mode loads: the base wraps to 32 bits, the offset
		// does not, and CheckAddr traps exactly as for the unfused load.
		case tLoadAdd + ldU8:
			regs[t.d] = uint64(rt.LdU8(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])+uint32(regs[t.b])), t.imm, 1)))
		case tLoadAdd + ldU16:
			regs[t.d] = uint64(rt.LdU16(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])+uint32(regs[t.b])), t.imm, 2)))
		case tLoadAdd + ldU32:
			regs[t.d] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])+uint32(regs[t.b])), t.imm, 4)))
		case tLoadAdd + ldU64:
			regs[t.d] = rt.LdU64(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])+uint32(regs[t.b])), t.imm, 8))
		case tLoadAddImm + ldU8:
			regs[t.d] = uint64(rt.LdU8(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])+uint32(t.b)), t.imm, 1)))
		case tLoadAddImm + ldU16:
			regs[t.d] = uint64(rt.LdU16(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])+uint32(t.b)), t.imm, 2)))
		case tLoadAddImm + ldU32:
			regs[t.d] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])+uint32(t.b)), t.imm, 4)))
		case tLoadAddImm + ldU64:
			regs[t.d] = rt.LdU64(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])+uint32(t.b)), t.imm, 8))
		case tLoadShl + ldU8:
			regs[t.d] = uint64(rt.LdU8(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])<<(uint32(t.b)&31)), t.imm, 1)))
		case tLoadShl + ldU16:
			regs[t.d] = uint64(rt.LdU16(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])<<(uint32(t.b)&31)), t.imm, 2)))
		case tLoadShl + ldU32:
			regs[t.d] = uint64(rt.LdU32(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])<<(uint32(t.b)&31)), t.imm, 4)))
		case tLoadShl + ldU64:
			regs[t.d] = rt.LdU64(pages, mem, rt.CheckAddr(uint64(uint32(regs[t.a])<<(uint32(t.b)&31)), t.imm, 8))
		case tLoadConst + ldU8:
			regs[t.d] = uint64(rt.LdU8(pages, mem, uint32(t.imm)))
		case tLoadConst + ldU16:
			regs[t.d] = uint64(rt.LdU16(pages, mem, uint32(t.imm)))
		case tLoadConst + ldU32:
			regs[t.d] = uint64(rt.LdU32(pages, mem, uint32(t.imm)))
		case tLoadConst + ldU64:
			regs[t.d] = rt.LdU64(pages, mem, uint32(t.imm))

		default:
			rt.Trap("turbofan: unknown opcode %#x", t.op)
		}
		pc++
		continue
	branch:
		// Taken backward branches (loop back-edges) charge fuel so runaway
		// loops stay interruptible; unmetered runs pay only the bool test.
		if env.Metered && int(t.d) <= pc {
			env.UseFuel(1)
		}
		pc = int(t.d)
	}
}
