package core

import (
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// Parallel hash-table merge exports. Every worker fills a private group or
// join-build hash table during the parallel scan; at the barrier the host
// drains the secondary workers' tables (dump), concatenates the records,
// presizes the primary's table, writes the records into the primary (recv)
// and drives the merge export over them morsel-wise. Groups and joins share
// that protocol and differ only in the merge loop: a group merge compares
// keys with the serial probe's equality and folds colliding partial states,
// a join merge appends (duplicate keys coexist). Like the rest of the module
// the exports are monomorphized against the QEP's types. Serial execution
// never calls them.

const (
	groupDumpExport    = "q_groups_dump"
	groupRecvExport    = "q_merge_recv"
	groupPresizeExport = "q_group_presize"
	groupMergeExport   = "q_group_merge"
)

// genGroupMerge emits the merge exports for the group hash table and
// records the metadata the parallel executor needs. Only the first (and in
// practice only) keyed group of a query gets the exports.
func (c *compiler) genGroupMerge(gr *plan.Group, ht *htInfo, aggSlots []*sema.AggRef) {
	if c.out.GroupMerge != nil {
		return
	}
	gm := &GroupMerge{HTMerge: HTMerge{
		DumpExport:    groupDumpExport,
		RecvExport:    groupRecvExport,
		PresizeExport: groupPresizeExport,
		MergeExport:   groupMergeExport,
		CountGlobal:   ht.gCount,
		Stride:        ht.layout.stride,
	}}
	for _, k := range gr.Keys {
		gm.Keys = append(gm.Keys, k.Type())
	}
	aggFields := make([]field, len(gr.Aggs))
	for i, a := range gr.Aggs {
		fld, ok := ht.layout.find(aggSlots[i])
		if !ok {
			return
		}
		aggFields[i] = fld
		gm.Aggs = append(gm.Aggs, MergeAgg{T: fld.t, Func: a.Func})
	}

	c.genHTMerge(gm.HTMerge, ht, func(g *gen, entry, rec wasm.Local) {
		for i, a := range gr.Aggs {
			af := aggFields[i]
			g.emitAggMerge(entry, af, a, func() { g.loadField(rec, af) })
		}
	})
	c.out.GroupMerge = gm
}

// genHTMerge emits the dump, recv, presize and merge exports named by m for
// table ht. fold, when non-nil, makes the merge a group merge: a received
// record whose keys equal an occupied entry's is folded into it by
// fold(entry, rec). Without fold, records are appended (join semantics).
func (c *compiler) genHTMerge(m HTMerge, ht *htInfo, fold func(g *gen, entry, rec wasm.Local)) {
	c.genDumpFunc(m.DumpExport, ht)
	gRecv := c.genRecvFunc(m.RecvExport, ht)
	c.genPresizeFunc(m.PresizeExport, ht)
	c.genMergeFunc(m.MergeExport, ht, gRecv, fold)
}

// genDumpFunc emits <name>() -> i32: compact the occupied entries of the
// hash table into a fresh allocation (flag word included, so each record is
// a verbatim entry image) and return its base. The record count is the live
// gCount, read host-side.
func (c *compiler) genDumpFunc(name string, ht *htInfo) {
	f := c.b.NewFunc(name, wasm.FuncType{Results: []wasm.ValType{wasm.I32}})
	c.b.Export(name, wasm.ExternFunc, f.Index)
	stride := int32(ht.layout.stride)

	base := f.AddLocal(wasm.I32)
	out := f.AddLocal(wasm.I32)
	cap := f.AddLocal(wasm.I32)
	i := f.AddLocal(wasm.I32)
	entry := f.AddLocal(wasm.I32)

	f.GlobalGet(ht.gCount)
	f.I32Const(stride)
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.LocalTee(base)
	f.LocalSet(out)
	f.GlobalGet(ht.gMask)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(cap)

	// for i in 0..cap: if occupied, copy entry to out, out += stride
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(cap)
	f.I32GeU()
	f.BrIf(1)
	f.GlobalGet(ht.gBase)
	f.LocalGet(i)
	f.I32Const(stride)
	f.I32Mul()
	f.I32Add()
	f.LocalSet(entry)
	f.LocalGet(entry)
	f.Emit(wasm.OpI32Load, 0, 2) // occupancy flag
	f.If(wasm.BlockVoid)
	emitWordCopy(f, out, entry, stride)
	f.LocalGet(out)
	f.I32Const(stride)
	f.I32Add()
	f.LocalSet(out)
	f.End()
	f.LocalGet(i)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.LocalGet(base)
}

// genRecvFunc emits <name>(n) -> i32: allocate room for n merged records,
// remember the base in a dedicated global (the merge loop reads it), and
// return it so the host can write the records.
func (c *compiler) genRecvFunc(name string, ht *htInfo) uint32 {
	gRecv := c.b.AddGlobal(wasm.I32, true, 0)
	f := c.b.NewFunc(name, wasm.FuncType{
		Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32},
	})
	c.b.Export(name, wasm.ExternFunc, f.Index)
	f.LocalGet(f.Param(0))
	f.I32Const(int32(ht.layout.stride))
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.GlobalSet(gRecv)
	f.GlobalGet(gRecv)
	return gRecv
}

// genPresizeFunc emits <name>(needed) -> i32: grow the table until `needed`
// records fit under the 3/4 load-factor ceiling, returning the final
// capacity. The host calls it before the merge loop so insertion never
// grows mid-merge: dumps list records in slot order, and slot-ordered
// inserts meeting a near-full table degenerate into long linear-probe
// cluster walks right at the growth thresholds.
func (c *compiler) genPresizeFunc(name string, ht *htInfo) {
	f := c.b.NewFunc(name, wasm.FuncType{
		Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32},
	})
	c.b.Export(name, wasm.ExternFunc, f.Index)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(f.Param(0))
	f.I32Const(4)
	f.I32Mul()
	f.GlobalGet(ht.gMask)
	f.I32Const(1)
	f.I32Add()
	f.I32Const(3)
	f.I32Mul()
	f.Op(wasm.OpI32LeU) // needed*4 <= cap*3: big enough
	f.BrIf(1)
	f.Call(ht.grow.Index)
	f.Br(0)
	f.End()
	f.End()
	f.GlobalGet(ht.gMask)
	f.I32Const(1)
	f.I32Add()
}

// genMergeFunc emits <name>(begin, end) -> i32: insert received records
// [begin, end) into this worker's table. Each record is a verbatim entry
// image; re-hash its stored keys (same canonicalization as the feeding
// insert) and probe. An empty slot is claimed with a word copy. With fold,
// an occupied slot whose keys equal the record's (the serial probe's
// emitKeysEqual) absorbs the record's partial states; without it, occupied
// slots are skipped, because append semantics mean colliding keys coexist.
// The morsel-shaped signature lets the executor drive it through callMorsel
// (tracing and fault injection apply).
func (c *compiler) genMergeFunc(name string, ht *htInfo, gRecv uint32, fold func(g *gen, entry, rec wasm.Local)) {
	f := c.b.NewFunc(name, wasm.FuncType{
		Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32},
	})
	c.b.Export(name, wasm.ExternFunc, f.Index)
	g := &gen{c: c, f: f}
	stride := int32(ht.layout.stride)

	i := f.AddLocal(wasm.I32)
	rec := f.AddLocal(wasm.I32)
	entry := f.AddLocal(wasm.I32)

	f.LocalGet(f.Param(0))
	f.LocalSet(i)

	f.Block(wasm.BlockVoid) // all records done
	f.Loop(wasm.BlockVoid)
	f.LocalGet(i)
	f.LocalGet(f.Param(1))
	f.I32GeU()
	f.BrIf(1)
	f.GlobalGet(gRecv)
	f.LocalGet(i)
	f.I32Const(stride)
	f.I32Mul()
	f.I32Add()
	f.LocalSet(rec)

	// Key sources read from the record, which mirrors the entry layout.
	var keys []keySrc
	for _, k := range ht.keys {
		fld, ok := ht.layout.find(k)
		if !ok {
			g.fail("merge: key not in entry layout")
			continue
		}
		kf := fld
		keys = append(keys, keySrc{t: kf.t, pushVal: func() { g.loadField(rec, kf) }})
	}
	h := g.emitHashCanon(keys, ht.canonFloatKeys)
	idx := g.emitSlotIndex(ht, h)

	f.Block(wasm.BlockVoid) // this record done
	f.Loop(wasm.BlockVoid)
	g.emitEntryPtr(ht, idx, entry)
	f.LocalGet(entry)
	f.Emit(wasm.OpI32Load, 0, 2)
	f.I32Eqz()
	f.If(wasm.BlockVoid)
	// Claim: the record is a full entry image (flag, keys, payload or
	// partial states), so a verbatim copy installs it.
	emitWordCopy(f, entry, rec, stride)
	f.GlobalGet(ht.gCount)
	f.I32Const(1)
	f.I32Add()
	f.GlobalSet(ht.gCount)
	g.emitMaybeGrow(ht)
	f.Br(2) // this record done
	f.End()
	if fold != nil {
		// Occupied: keys equal → fold partial states; else advance.
		g.emitKeysEqual(ht, keys, entry)
		f.If(wasm.BlockVoid)
		fold(g, entry, rec)
		f.Br(2) // this record done
		f.End()
	}
	f.LocalGet(idx)
	f.I32Const(1)
	f.I32Add()
	f.GlobalGet(ht.gMask)
	f.I32And()
	f.LocalSet(idx)
	f.Br(0)
	f.End()
	f.End()

	f.LocalGet(i)
	f.I32Const(1)
	f.I32Add()
	f.LocalSet(i)
	f.Br(0)
	f.End()
	f.End()
	f.I32Const(0)
	if g.err != nil && c.err == nil {
		c.err = g.err
	}
}

// emitAggMerge folds a partial aggregate state (pushed by pushPartial, same
// type as the slot) into an entry's slot — the guest half of the parallel
// group merge. It differs from emitAggUpdate in that COUNT adds the partial
// count rather than 1; SUM and MIN/MAX fold the partial like a row value.
func (g *gen) emitAggMerge(entry wasm.Local, fld field, a sema.Aggregate, pushPartial func()) {
	f := g.f
	switch a.Func {
	case sema.AggCountStar, sema.AggCount:
		g.storeFieldFromStack(entry, fld, func() {
			g.loadField(entry, fld)
			pushPartial()
			f.I64Add()
		})
	case sema.AggSum:
		g.storeFieldFromStack(entry, fld, func() {
			g.loadField(entry, fld)
			pushPartial()
			if fld.t.Kind == types.Float64 {
				f.F64Add()
			} else {
				f.I64Add()
			}
		})
	case sema.AggMin, sema.AggMax:
		g.storeFieldFromStack(entry, fld, func() {
			// select(partial, old, cmp) — same branch-free shape as the
			// per-row update.
			pushPartial()
			g.loadField(entry, fld)
			pushPartial()
			g.loadField(entry, fld)
			f.Op(minMaxCmp(a.Func, fld.t))
			f.Select()
		})
	default:
		g.fail("no merge rule for aggregate %v", a.Func)
	}
}

// sortRecvExport is the receive export of the parallel sorted-run merge.
const sortRecvExport = "q_sort_recv"

// genSortMerge emits q_sort_recv(n) -> i32 — allocate room for n merged
// tuples, point the sort array globals at it, and return the base the host
// writes the k-way-merged run to — and records the SortMerge metadata. Only
// the first sort of a query gets the export.
func (c *compiler) genSortMerge(s *plan.Sort, layout tupleLayout, gBase, gCount uint32) {
	if c.out.SortMerge != nil {
		return
	}
	sm := &SortMerge{
		RecvExport:  sortRecvExport,
		BaseGlobal:  gBase,
		CountGlobal: gCount,
		Stride:      layout.stride,
	}
	for _, k := range s.Keys {
		fld, ok := layout.find(k.Expr)
		if !ok {
			return
		}
		sm.Keys = append(sm.Keys, SortKeyField{Offset: fld.offset, T: fld.t, Desc: k.Desc})
	}

	f := c.b.NewFunc(sortRecvExport, wasm.FuncType{
		Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32},
	})
	c.b.Export(sortRecvExport, wasm.ExternFunc, f.Index)
	f.LocalGet(f.Param(0))
	f.I32Const(int32(layout.stride))
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.GlobalSet(gBase)
	f.LocalGet(f.Param(0))
	f.GlobalSet(gCount)
	f.GlobalGet(gBase)
	c.out.SortMerge = sm
}

// emitWordCopy copies stride bytes (a multiple of 8) from src to dst with
// an i64 word loop — the same shape the grow function uses.
func emitWordCopy(f *wasm.FuncBuilder, dst, src wasm.Local, stride int32) {
	w := f.AddLocal(wasm.I32)
	f.I32Const(0)
	f.LocalSet(w)
	f.Block(wasm.BlockVoid)
	f.Loop(wasm.BlockVoid)
	f.LocalGet(w)
	f.I32Const(stride)
	f.I32GeU()
	f.BrIf(1)
	f.LocalGet(dst)
	f.LocalGet(w)
	f.I32Add()
	f.LocalGet(src)
	f.LocalGet(w)
	f.I32Add()
	f.I64Load(0)
	f.I64Store(0)
	f.LocalGet(w)
	f.I32Const(8)
	f.I32Add()
	f.LocalSet(w)
	f.Br(0)
	f.End()
	f.End()
}
