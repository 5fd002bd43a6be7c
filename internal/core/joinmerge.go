package core

import (
	"fmt"

	"wasmdb/internal/wasm"
)

// Parallel join-merge exports (partitioned build → shared immutable table).
// Every worker inserts its private partition of the build side during the
// parallel build scan; the shared hash-table merge barrier (groupmerge.go)
// appends the secondary workers' partitions into the primary worker's
// table, and the install export then replicates the completed table into
// every worker so the probe pipeline runs embarrassingly parallel. Join
// inserts are append-style (duplicate keys coexist as separate entries), so
// the merge loop claims the first empty probe slot and never compares keys.
// Serial execution never calls these exports.

// joinInitialCap derives the initial capacity of a join build table from the
// planner's cardinality estimate. Estimates are float64 row counts that may
// be zero, huge, or (from degenerate statistics) NaN — an unguarded
// uint32(est/2) wraps for large values and requests capacity 0 for empty
// build sides, which the mask math turns into a degenerate table. Clamp to
// [64, 2^20] and round to a power of two; the table still grows on demand.
func joinInitialCap(est float64) uint32 {
	est /= 2
	if !(est > 0) { // negative, zero, or NaN
		return 64
	}
	if est < 64 {
		return 64
	}
	if est > 1<<20 {
		return 1 << 20
	}
	return pow2ceil(uint32(est))
}

// genJoinMerge emits the merge and install exports for one join build
// table and records the metadata the parallel executor needs. Export names
// carry the join's ordinal so multi-join queries keep them distinct.
func (c *compiler) genJoinMerge(ht *htInfo, buildPipeline int) {
	ord := len(c.out.JoinMerges)
	jm := &JoinMerge{
		HTMerge: HTMerge{
			DumpExport:    fmt.Sprintf("q_join_dump_%d", ord),
			RecvExport:    fmt.Sprintf("q_join_recv_%d", ord),
			PresizeExport: fmt.Sprintf("q_join_presize_%d", ord),
			MergeExport:   fmt.Sprintf("q_join_merge_%d", ord),
			CountGlobal:   ht.gCount,
			Stride:        ht.layout.stride,
		},
		InstallExport: fmt.Sprintf("q_join_install_%d", ord),
		BaseGlobal:    ht.gBase,
		MaskGlobal:    ht.gMask,
		BuildPipeline: buildPipeline,
	}

	c.genHTMerge(jm.HTMerge, ht, nil)
	c.genJoinInstall(jm.InstallExport, ht)
	c.out.JoinMerges = append(c.out.JoinMerges, jm)
}

// genJoinInstall emits <name>(cap, count) -> i32: allocate cap*stride bytes,
// repoint the table globals at the allocation, and return its base. The
// host writes the primary worker's complete entry image there, replacing
// this secondary worker's partial partition before the probe pipeline runs.
// A verbatim image is correct on any worker because slot positions depend
// only on the hash and the mask, both of which travel with the image.
func (c *compiler) genJoinInstall(name string, ht *htInfo) {
	f := c.b.NewFunc(name, wasm.FuncType{
		Params: []wasm.ValType{wasm.I32, wasm.I32}, Results: []wasm.ValType{wasm.I32},
	})
	c.b.Export(name, wasm.ExternFunc, f.Index)
	f.LocalGet(f.Param(0))
	f.I32Const(int32(ht.layout.stride))
	f.I32Mul()
	f.Call(c.allocFunc().Index)
	f.GlobalSet(ht.gBase)
	f.LocalGet(f.Param(0))
	f.I32Const(1)
	f.I32Sub()
	f.GlobalSet(ht.gMask)
	f.LocalGet(f.Param(1))
	f.GlobalSet(ht.gCount)
	f.GlobalGet(ht.gBase)
}
