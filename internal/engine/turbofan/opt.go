package turbofan

import "wasmdb/internal/wasm"

// A block is a basic block; branch instructions hold target block ids in d
// while optimization runs, and the block falls through to its successor in
// graph order unless it ends in an unconditional transfer.
type block struct {
	ins []tin
}

type graph struct {
	blocks []block
	tables [][]uint32 // entries are block ids during optimization
}

// buildBlocks splits linear code (with pc targets) into basic blocks and
// rewrites targets to block ids.
func buildBlocks(ins []tin, tables [][]uint32) *graph {
	n := len(ins)
	leader := make([]bool, n+1)
	leader[0] = true
	for i, t := range ins {
		info := &opInfos[t.op]
		if !info.branch {
			continue
		}
		leader[i+1] = true
		if info.target {
			leader[t.d] = true
		}
	}
	for _, tbl := range tables {
		for _, pc := range tbl {
			leader[pc] = true
		}
	}
	blockOf := make([]int, n+1)
	id := -1
	for i := 0; i <= n; i++ {
		if i < n && leader[i] {
			id++
		}
		blockOf[i] = id
	}
	// A trailing target pointing one past the end maps to a synthetic final
	// empty block.
	numBlocks := id + 1
	if leader[n] {
		blockOf[n] = numBlocks
		numBlocks++
	} else {
		blockOf[n] = numBlocks - 1
	}
	g := &graph{blocks: make([]block, numBlocks)}
	cur := -1
	for i := 0; i < n; i++ {
		if leader[i] {
			cur++
		}
		g.blocks[cur].ins = append(g.blocks[cur].ins, ins[i])
	}
	// Rewrite pc targets to block ids.
	for bi := range g.blocks {
		for ii := range g.blocks[bi].ins {
			t := &g.blocks[bi].ins[ii]
			if opInfos[t.op].target {
				t.d = int32(blockOf[t.d])
			}
		}
	}
	g.tables = make([][]uint32, len(tables))
	for ti, tbl := range tables {
		g.tables[ti] = make([]uint32, len(tbl))
		for i, pc := range tbl {
			g.tables[ti][i] = uint32(blockOf[pc])
		}
	}
	return g
}

// successors appends the successor block ids of block bi to dst.
func (g *graph) successors(bi int, dst []int) []int {
	ins := g.blocks[bi].ins
	fall := true
	if len(ins) > 0 {
		last := ins[len(ins)-1]
		if info := &opInfos[last.op]; info.branch {
			if info.target {
				dst = append(dst, int(last.d))
			}
			if last.op == tBrTable {
				for _, t := range g.tables[last.imm] {
					dst = append(dst, int(t))
				}
			}
			fall = !info.uncond
		}
	}
	if fall && bi+1 < len(g.blocks) {
		dst = append(dst, bi+1)
	}
	return dst
}

// ---------------------------------------------------------------------------
// Optimizer.

type optimizer struct {
	g      *graph
	nRegs  int
	code   *Code
	rounds int
	passes int
}

func (o *optimizer) run() {
	if o.rounds <= 0 {
		o.rounds = DefaultOptRounds
	}
	for round := 0; round < o.rounds; round++ {
		o.foldBlocks()
		o.passes++
		o.fuseBranches()
		o.passes++
		o.threadJumps()
		o.passes++
		o.deadCodeElim()
		o.passes++
	}
}

// regSet is a bit set of registers.
type regSet []uint64

func (s regSet) add(r int32)      { s[r>>6] |= 1 << (r & 63) }
func (s regSet) del(r int32)      { s[r>>6] &^= 1 << (r & 63) }
func (s regSet) has(r int32) bool { return s[r>>6]&(1<<(r&63)) != 0 }

// liveStep applies t backwards to the live set: its defs die, its uses
// become live.
func (o *optimizer) liveStep(live regSet, t *tin) {
	info := &opInfos[t.op]
	if info.def {
		live.del(t.d)
	}
	if info.useA {
		live.add(t.a)
	}
	if info.useB {
		live.add(t.b)
	}
	switch t.op {
	case tSelect:
		live.add(int32(t.imm))
	case tCall, tCallIndirect:
		np, nr := t.b>>16, t.b&0xFFFF
		for r := t.a; r < t.a+nr; r++ {
			live.del(r)
		}
		if t.op == tCallIndirect {
			np++ // the table index
		}
		for r := t.a; r < t.a+np; r++ {
			live.add(r)
		}
	case tRet:
		for i := 0; i < o.code.NResults; i++ {
			live.add(int32(o.code.NLocals + i))
		}
	}
}

// regFact is what foldBlocks knows about a register's current value. It
// holds until the register's next def, which resets it.
type regFact struct {
	kind uint8
	// op is the address computation of a factAddr: i32.add, tI32AddImm or
	// tI32ShlImm.
	op uint16
	// a and b are the source registers, valid while they keep the def
	// generations aGen and bGen.
	a, b       int32
	aGen, bGen uint32
	val        uint64
}

const (
	factNone  = iota
	factConst // the value is val
	factCopy  // the value equals register a
	factAddr  // the value is op(a, b) or op(a, val): a load may fuse it
)

// folder holds foldBlocks' dataflow facts. Every def bumps a generation
// counter and stamps the register with it, so a def invalidates every fact
// derived from the register in O(1): such a fact is valid only while its
// sources keep the generations it recorded. A new block starts a
// generation too, which expires every fact from the blocks before it.
type folder struct {
	gen, blockGen uint32
	defGen        []uint32
	facts         []regFact
}

func (f *folder) def(r int32) *regFact {
	f.gen++
	f.defGen[r] = f.gen
	p := &f.facts[r]
	*p = regFact{}
	return p
}

func (f *folder) fact(r int32, kind uint8) *regFact {
	if p := &f.facts[r]; p.kind == kind && f.defGen[r] > f.blockGen {
		return p
	}
	return nil
}

func (f *folder) constOf(r int32) (uint64, bool) {
	if p := f.fact(r, factConst); p != nil {
		return p.val, true
	}
	return 0, false
}

// resolve returns the register r is currently a copy of, or r.
func (f *folder) resolve(r int32) int32 {
	if p := f.fact(r, factCopy); p != nil && f.defGen[p.a] == p.aGen {
		return p.a
	}
	return r
}

func (f *folder) setConst(t *tin, v uint64) {
	*t = tin{op: uint16(wasm.OpI64Const), d: t.d, imm: v}
	p := f.def(t.d)
	p.kind, p.val = factConst, v
}

// setMove makes t the copy d ← src, a constant when src is one, or nothing
// when d already holds src.
func (f *folder) setMove(t *tin, src int32) {
	if v, ok := f.constOf(src); ok {
		f.setConst(t, v)
		return
	}
	if src == t.d {
		*t = tin{op: tNop}
		return
	}
	*t = tin{op: tMove, d: t.d, a: src}
	g := f.defGen[src]
	p := f.def(t.d)
	p.kind, p.a, p.aGen = factCopy, src, g
}

// retarget makes def write the local the following move copies its result
// to, and turns the move around: s ← op …; L ← s becomes L ← op …; s ← L.
// Later uses of s then read L through the copy, and DCE removes the move
// once s is dead. Only locals are targets: fuseBranches relies on a compare
// that writes an operand-stack slot being popped by the branch after it.
func (f *folder) retarget(def, mv *tin) {
	s, l := def.d, mv.d
	fact := f.facts[s]
	def.d = l
	*f.def(l) = fact
	*mv = tin{op: tMove, d: s, a: l}
	g := f.defGen[l]
	q := f.def(s)
	q.kind, q.a, q.aGen = factCopy, l, g
}

// retargetable reports whether op computes a value into d alone, so that
// foldBlocks may make it write another register. Moves and constants need
// no retargeting: the copy and constant facts already forward them.
func retargetable(op uint16) bool {
	info := &opInfos[op]
	return info.def && info.kind != kindMove && info.kind != kindConst
}

// defValue records t's def, with an address fact when t computes one.
func (f *folder) defValue(t *tin) {
	var addr regFact
	switch t.op {
	case uint16(wasm.OpI32Add):
		addr = regFact{kind: factAddr, op: t.op, a: t.a, b: t.b, aGen: f.defGen[t.a], bGen: f.defGen[t.b]}
	case tI32AddImm, tI32ShlImm:
		addr = regFact{kind: factAddr, op: t.op, a: t.a, aGen: f.defGen[t.a], val: t.imm}
	}
	*f.def(t.d) = addr
}

// swapOperands returns the opcode computing op(b, a) as op'(a, b): op itself
// when it commutes, the mirrored kind for an integer comparison.
func swapOperands(op uint16) (uint16, bool) {
	switch wasm.Opcode(op) {
	case wasm.OpI32Add, wasm.OpI32Mul, wasm.OpI32And, wasm.OpI32Or, wasm.OpI32Xor,
		wasm.OpI64Add, wasm.OpI64Mul, wasm.OpI64And, wasm.OpI64Or, wasm.OpI64Xor:
		return op, true
	}
	if k, ok := cmpKind(op); ok && k < cmpF32Eq {
		return immBase[tCmpImm+int(swapCmp[k])], true
	}
	return 0, false
}

// foldBin folds d ← a op b: two constants fold to one, and a constant right
// operand (or left, for an op that can swap them) becomes an immediate.
func (f *folder) foldBin(t *tin) {
	ca, aok := f.constOf(t.a)
	cb, bok := f.constOf(t.b)
	if aok && bok {
		if v, ok := pureEval(t.op, ca, cb); ok {
			f.setConst(t, v)
			return
		}
	}
	if aok && !bok {
		if op, ok := swapOperands(t.op); ok {
			t.op, t.a, t.b, cb, bok = op, t.b, t.a, ca, true
		}
	}
	if form := immForms[t.op]; bok && form != 0 {
		switch wasm.Opcode(t.op) {
		case wasm.OpI32Sub:
			cb = uint64(-uint32(cb))
		case wasm.OpI64Sub:
			cb = -cb
		}
		*t = tin{op: form, d: t.d, a: t.a, imm: cb}
		f.foldBinImm(t)
		return
	}
	f.defValue(t)
}

// foldBinImm folds d ← a op imm when a is a constant.
func (f *folder) foldBinImm(t *tin) {
	if ca, ok := f.constOf(t.a); ok {
		if v, ok := pureEval(immBase[t.op], ca, t.imm); ok {
			f.setConst(t, v)
			return
		}
	}
	f.defValue(t)
}

// foldLoad fuses the address computation feeding a zero-extending load into
// it, when the computation's operands still hold the values it read, or
// folds a constant base into the address.
func (f *folder) foldLoad(t *tin) {
	w, ok := loadWidth(t.op)
	if c, isConst := f.constOf(t.a); ok && isConst {
		// Out of range, the load traps; leave that to the unfused form.
		if ea := uint64(uint32(c)) + t.imm; ea+loadSize[w] <= 1<<32 {
			*t = tin{op: uint16(tLoadConst + w), d: t.d, imm: ea}
		}
		f.def(t.d)
		return
	}
	p := f.fact(t.a, factAddr)
	if ok && p != nil && f.defGen[p.a] == p.aGen {
		switch p.op {
		case uint16(wasm.OpI32Add):
			if f.defGen[p.b] == p.bGen {
				*t = tin{op: uint16(tLoadAdd + w), d: t.d, a: p.a, b: p.b, imm: t.imm}
			}
		case tI32AddImm:
			*t = tin{op: uint16(tLoadAddImm + w), d: t.d, a: p.a, b: int32(uint32(p.val)), imm: t.imm}
		case tI32ShlImm:
			*t = tin{op: uint16(tLoadShl + w), d: t.d, a: p.a, b: int32(p.val & 31), imm: t.imm}
		}
	}
	f.def(t.d)
}

// takeBranch resolves a conditional branch whose outcome is known.
func takeBranch(t *tin, taken bool) {
	if taken {
		*t = tin{op: tJump, d: t.d}
	} else {
		*t = tin{op: tNop}
	}
}

// foldBlocks performs block-local constant propagation, copy propagation
// and constant folding. Along the way it turns constant operands into
// immediates, fuses address computations into the loads that use them, and
// writes defs straight to the local a following move copies them to.
func (o *optimizer) foldBlocks() {
	f := &folder{defGen: make([]uint32, o.nRegs), facts: make([]regFact, o.nRegs)}
	nLocals := int32(o.code.NLocals)
	for bi := range o.g.blocks {
		f.gen++
		f.blockGen = f.gen
		ins := o.g.blocks[bi].ins
		prev := -1 // the last instruction before ii that is not a nop
		for ii := range ins {
			if ii > 0 && ins[ii-1].op != tNop {
				prev = ii - 1
			}
			t := &ins[ii]
			info := &opInfos[t.op]
			// Rewrite uses through available copies. Calls and rets use
			// canonical registers and are not rewritten.
			if info.useA {
				t.a = f.resolve(t.a)
			}
			if info.useB {
				t.b = f.resolve(t.b)
			}
			switch info.kind {
			case kindConst:
				p := f.def(t.d)
				p.kind, p.val = factConst, t.imm
			case kindMove:
				if prev >= 0 && t.d < nLocals && t.a != t.d && ins[prev].d == t.a && retargetable(ins[prev].op) {
					f.retarget(&ins[prev], t)
					continue
				}
				f.setMove(t, t.a)
			case kindBin:
				f.foldBin(t)
			case kindBinImm:
				f.foldBinImm(t)
			case kindUn:
				if ca, ok := f.constOf(t.a); ok {
					if v, ok := pureEval(t.op, ca, 0); ok {
						f.setConst(t, v)
						continue
					}
				}
				f.def(t.d)
			case kindLoad:
				f.foldLoad(t)
			case kindSelect:
				cr := f.resolve(int32(t.imm))
				t.imm = uint64(cr)
				if c, ok := f.constOf(cr); ok {
					src := t.b
					if c != 0 {
						src = t.a
					}
					f.setMove(t, src)
					continue
				}
				f.def(t.d)
			default:
				switch {
				case t.op == tJumpIfZero || t.op == tJumpIfNot:
					if c, ok := f.constOf(t.a); ok {
						takeBranch(t, (c == 0) == (t.op == tJumpIfZero))
					}
				case t.op == tCall || t.op == tCallIndirect:
					for r := t.a; r < t.a+(t.b&0xFFFF); r++ {
						f.def(r)
					}
				case info.def:
					f.def(t.d)
				}
			}
		}
	}
}

// fuseBranches fuses comparison results consumed directly by a conditional
// branch into a single compare-and-branch instruction, and folds eqz into
// branch polarity.
//
// Correctness: the stack-to-register lowering reuses slots, so the compare's
// destination usually aliases its first operand (d == a). The fused branch
// reads the *operands*, so the compare must be removed, not merely left for
// DCE — otherwise it clobbers the operand before the branch reads it. The
// removal is safe exactly when d is an operand-stack slot (d ≥ NLocals):
// the branch pops that stack position, and the wasm stack discipline
// guarantees any later use of the slot is preceded by a write. When the
// result lands in a local (via local.tee), it may outlive the branch and we
// skip fusion.
func (o *optimizer) fuseBranches() {
	nLocals := int32(o.code.NLocals)
	for bi := range o.g.blocks {
		ins := o.g.blocks[bi].ins
		i := lastLive(ins, len(ins))
		if i < 0 || ins[i].op != tJumpIfZero && ins[i].op != tJumpIfNot {
			continue
		}
		j := lastLive(ins, i)
		if j < 0 {
			continue
		}
		br, def := &ins[i], &ins[j]
		if def.d < nLocals || br.a != def.d || !opInfos[def.op].def {
			continue
		}
		var fused tin // branches when the def is non-zero
		switch {
		case def.op == uint16(wasm.OpI32Eqz) || def.op == uint16(wasm.OpI64Eqz):
			// Registers hold i32 values zero-extended, so testing the full
			// register is safe for i32.eqz as well.
			fused = tin{op: tJumpIfZero, a: def.a}
		case def.op >= tCmpImm && def.op < tCmpImm+cmpF32Eq:
			fused = tin{op: tBrCmpImm + def.op - tCmpImm, a: def.a, imm: def.imm}
		default:
			k, ok := cmpKind(def.op)
			if !ok {
				continue
			}
			fused = tin{op: uint16(tBrCmp + k), a: def.a, b: def.b}
		}
		if br.op == tJumpIfZero {
			fused.op = negBranch(fused.op)
		}
		fused.d = br.d
		*br = fused
		*def = tin{op: tNop}
	}
}

// lastLive returns the index of the last instruction before end that is not
// a nop, or -1.
func lastLive(ins []tin, end int) int {
	for i := end - 1; i >= 0; i-- {
		if ins[i].op != tNop {
			return i
		}
	}
	return -1
}

// threadJumps retargets branches that point at blocks containing only an
// unconditional jump.
func (o *optimizer) threadJumps() {
	target := func(bid int32) int32 {
		for hops := 0; hops < 8; hops++ {
			blk := &o.g.blocks[bid]
			redirected := false
			for _, t := range blk.ins {
				switch t.op {
				case tNop:
					continue
				case tJump:
					if t.d == bid {
						return bid // self-loop
					}
					bid = t.d
					redirected = true
				}
				break
			}
			if !redirected {
				return bid
			}
		}
		return bid
	}
	for bi := range o.g.blocks {
		for ii := range o.g.blocks[bi].ins {
			t := &o.g.blocks[bi].ins[ii]
			if opInfos[t.op].target {
				t.d = target(t.d)
			}
		}
	}
	for ti := range o.g.tables {
		for i := range o.g.tables[ti] {
			o.g.tables[ti][i] = uint32(target(int32(o.g.tables[ti][i])))
		}
	}
}

// deadCodeElim removes pure instructions whose results are never used,
// using global liveness over the block graph.
func (o *optimizer) deadCodeElim() {
	nb := len(o.g.blocks)
	words := (o.nRegs + 63) / 64
	liveIn := make([]regSet, nb)
	liveOut := make([]regSet, nb)
	for i := range liveIn {
		liveIn[i] = make(regSet, words)
		liveOut[i] = make(regSet, words)
	}

	// Backward fixpoint.
	scratch := make(regSet, words)
	var succ []int
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			succ = o.g.successors(bi, succ[:0])
			for w := range scratch {
				scratch[w] = 0
			}
			for _, s := range succ {
				for w := range scratch {
					scratch[w] |= liveIn[s][w]
				}
			}
			copy(liveOut[bi], scratch)
			// live = out; walk block backwards applying use/def.
			ins := o.g.blocks[bi].ins
			for ii := len(ins) - 1; ii >= 0; ii-- {
				if t := &ins[ii]; t.op != tNop {
					o.liveStep(scratch, t)
				}
			}
			for w := range scratch {
				if scratch[w] != liveIn[bi][w] {
					liveIn[bi][w] = scratch[w]
					changed = true
				}
			}
		}
	}

	// Removal pass: walk each block backwards with running liveness.
	for bi := 0; bi < nb; bi++ {
		copy(scratch, liveOut[bi])
		ins := o.g.blocks[bi].ins
		for ii := len(ins) - 1; ii >= 0; ii-- {
			t := &ins[ii]
			if t.op == tNop {
				continue
			}
			info := &opInfos[t.op]
			if info.def && !info.traps && info.kind != kindOther && !scratch.has(t.d) {
				*t = tin{op: tNop}
				continue
			}
			o.liveStep(scratch, t)
		}
	}
}

// ---------------------------------------------------------------------------
// Linearization: blocks → final instruction stream with pc targets.

// maxRotate bounds the loop-header instructions copied per inverted loop.
const maxRotate = 8

// rotation returns the instructions of block h when a jump to it can be
// replaced by a copy of it: h holds at most maxRotate straight-line
// instructions and ends in a conditional branch. The copy's branch is
// inverted to continue at h's successor, so a loop whose back edge jumps to
// its test runs one branch per iteration instead of a jump and a branch.
func (g *graph) rotation(h int32) []tin {
	if int(h)+1 >= len(g.blocks) {
		return nil
	}
	var body []tin
	for _, t := range g.blocks[h].ins {
		if t.op == tNop {
			continue
		}
		if len(body) == maxRotate || t.op == tCall || t.op == tCallIndirect {
			return nil
		}
		body = append(body, t)
	}
	if len(body) == 0 {
		return nil
	}
	if last := opInfos[body[len(body)-1].op]; !last.branch || last.uncond {
		return nil
	}
	return body
}

func linearize(c *Code, g *graph) {
	// Emit blocks in order, dropping nops and jumps to the next block, and
	// record each block's start pc. A jump to a loop test is inverted.
	var out []tin
	start := make([]int, len(g.blocks)+1)
	for bi := range g.blocks {
		start[bi] = len(out)
		for _, t := range g.blocks[bi].ins {
			if t.op == tNop || (t.op == tJump && int(t.d) == bi+1) {
				continue
			}
			if t.op == tJump && int(t.d) != bi {
				if body := g.rotation(t.d); body != nil {
					n := len(body) - 1
					out = append(out, body[:n]...)
					br := body[n]
					exit := br.d
					br.op, br.d = negBranch(br.op), t.d+1
					out = append(out, br)
					if int(exit) != bi+1 {
						out = append(out, tin{op: tJump, d: exit})
					}
					continue
				}
			}
			out = append(out, t)
		}
	}
	start[len(g.blocks)] = len(out)
	// Rewrite block-id targets to pcs.
	for i := range out {
		if opInfos[out[i].op].target {
			out[i].d = int32(start[out[i].d])
		}
	}
	c.tables = make([][]uint32, len(g.tables))
	for ti, tbl := range g.tables {
		c.tables[ti] = make([]uint32, len(tbl))
		for i, b := range tbl {
			c.tables[ti][i] = uint32(start[b])
		}
	}
	// Guarantee the stream ends in a control transfer (lowering always emits
	// tRet, but a trailing empty block may remain a jump target).
	if n := len(out); n == 0 || !opInfos[out[n-1].op].uncond {
		out = append(out, tin{op: tRet})
	}
	c.ins = out
}
