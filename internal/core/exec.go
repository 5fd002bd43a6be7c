package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"wasmdb/internal/engine"
	"wasmdb/internal/engine/rt"
	"wasmdb/internal/engine/wmem"
	"wasmdb/internal/faultpoint"
	"wasmdb/internal/obs"
	"wasmdb/internal/sema"
	"wasmdb/internal/types"
	"wasmdb/internal/wasm"
)

// Process-wide executor metrics, resolved once so recording is atomic-only.
var (
	mFuelConsumed  = obs.Default.Counter(obs.MetricFuelConsumed)
	mPeakHeapPages = obs.Default.Gauge(obs.MetricPeakHeapPages)
	mMorselLatency = obs.Default.Histogram(obs.MetricMorselLatency)
)

// ExecOptions configures query execution.
type ExecOptions struct {
	// Tier selects the engine configuration (default TierAdaptive).
	Tier engine.Tier
	// MorselRows is the morsel size (default DefaultMorselRows).
	MorselRows int
	// ChunkRows enables chunked rewiring (§6.1) for table-scan pipelines:
	// instead of mapping whole columns, the executor maps a window of
	// ChunkRows rows and re-maps the window to the next chunk between
	// morsel batches — how tables beyond the 32-bit address budget are
	// processed. Must be a multiple of 65536 so every column's chunk stays
	// page-aligned; 0 disables chunking.
	ChunkRows int
	// WaitOptimized blocks until background optimization finished before
	// the first morsel runs — used by benchmarks that want to measure pure
	// TurboFan-tier execution under the adaptive configuration.
	WaitOptimized bool
	// Ctx cancels the query: between morsels via a direct check, and inside
	// a running morsel via the instance's interrupt flag (metering is
	// enabled automatically when Ctx is cancellable). nil means Background.
	Ctx context.Context
	// Fuel bounds execution to that many units (function entries plus taken
	// loop back-edges); exhaustion fails the query with
	// engine.ErrFuelExhausted. 0 means unlimited.
	Fuel int64
	// MemoryBudgetPages caps the query's linear memory (in 64 KiB pages);
	// growth beyond it fails the query with engine.ErrMemoryLimit. 0 means
	// no budget.
	MemoryBudgetPages uint32
	// Trace, when non-nil, receives the query's spans, point events, and
	// counters (compile phases, rewiring, per-pipeline execution, tier-up
	// timeline). nil disables span recording on the hot path.
	Trace *obs.Trace
	// DrainBackground waits for background optimization to finish after the
	// last morsel — adaptive behavior during the query is unchanged, but the
	// trace's tier-up timeline and Turbofan timing are complete when Execute
	// returns.
	DrainBackground bool
	// Parallelism sets the morsel worker-pool size (<= 1 runs serially).
	// Each worker owns a private instance and linear memory created from the
	// shared compiled module; pipelines whose state the host cannot merge
	// fall back to serial execution (see ExecStats.SerialFallback).
	Parallelism int
	// Scheduler, when non-nil, is the shared global worker-slot pool that
	// multiplexes morsel workers across concurrent queries: Parallelism
	// becomes a request, the scheduler's lease decides the actual pool size,
	// and a denied lease forces serial execution with the
	// "worker-slots-exhausted" fallback recorded. Revoked slots are given
	// back at morsel boundaries (see Scheduler). nil keeps per-query
	// parallelism ungoverned, as before.
	Scheduler *Scheduler
	// Precompiled, when non-nil, is an already-compiled engine module for
	// cq.Bin (a plan-cache hit): Execute skips engine compilation entirely —
	// no decode/validate/liftoff spans are recorded and the returned stats
	// report zero compile time — and instantiates this module instead. The
	// module may already be serving turbofan code from earlier executions.
	Precompiled *engine.Module
	// Params is the execution-time parameter vector, indexed by parameter
	// ordinal (explicit placeholders first, then literals hoisted by
	// sema.Parameterize). Its values are written into the parameter region
	// of every worker memory before q_init. Required when cq.ParamSlots is
	// non-empty.
	Params []types.Value
}

// ExecStats holds the executor's counters for one query — morsels per tier,
// memory, parallelism, merge work. It carries no durations: the spans on
// ExecOptions.Trace are the only timing source, and obs.NewQueryProfile
// reads them (with these counters, mirrored onto the trace) into the
// per-layer profile every stats surface shows. Untraced callers still get
// the counters here.
type ExecStats struct {
	// MorselsLiftoff and MorselsTurbofan count exported calls served by
	// each tier — the observable adaptive switch.
	MorselsLiftoff  uint64
	MorselsTurbofan uint64
	// TurbofanFailed counts functions whose optimizing compile failed; they
	// keep serving baseline code.
	TurbofanFailed int
	// ModuleBytes is the size of the generated Wasm binary.
	ModuleBytes int
	// FuelUsed is the fuel consumed against a user-supplied ExecOptions.Fuel
	// budget (0 when no budget was set). A cancellable context arms implicit
	// metering so interruption can reach inside a morsel, but that synthetic
	// budget is bookkeeping, not a user contract, and is never reported here.
	FuelUsed int64
	// PeakMemBytes is the high-water linear-memory size (pages never
	// shrink, so the final size is the peak). Under parallel execution it is
	// the sum across all worker memories — the query's total footprint.
	PeakMemBytes uint64
	// Workers is the size of the morsel worker pool the query ran with (1
	// when serial).
	Workers int
	// PipelinesParallel and PipelinesSerial count morsel-driven pipelines by
	// how they were executed (run-once pipelines, which dispatch a single
	// call, are counted in neither). PipelinesSerial > 0 alone does not mean
	// the query fell back: under parallel grouped aggregation or sort the
	// post-barrier output pipelines legitimately run serially on the primary
	// worker over merged state. A fallback is indicated by SerialFallback
	// being non-empty.
	PipelinesParallel int
	PipelinesSerial   int
	// SerialFallback names why a query that requested parallelism ran its
	// pipelines serially ("" when parallel execution applied or was never
	// requested): chunked-rewiring, fuel-budget, limit, float-sum-order,
	// float-group-key, or unmergeable-pipeline-state.
	SerialFallback string
	// GroupsMerged counts the partial group records drained from secondary
	// workers and merged by the guest at the parallel group-by barrier (0
	// when no group merge ran).
	GroupsMerged int
	// JoinPartitionsMerged counts the secondary-worker build partitions
	// drained at parallel join barriers, summed across the query's joins (0
	// when no join merge ran).
	JoinPartitionsMerged int
}

// ResultSet holds decoded query results.
type ResultSet struct {
	Names []string
	Types []types.Type
	Rows  [][]types.Value
}

// worker is one execution lane of the morsel pool: a private instance and
// linear memory created from the shared compiled module, plus the rows its
// result_flush calls have decoded so far. Serial queries use a single worker.
type worker struct {
	id   int
	mem  *wmem.Memory
	inst *engine.Instance
	// rows are this worker's decoded results; the merge pass concatenates
	// them in worker order.
	rows [][]types.Value
	// limitHit is set by the drain once the query's LIMIT is satisfied; the
	// morsel loop treats it like the guest's stop signal.
	limitHit bool
}

// Execute runs a compiled query against its bound tables on the given
// engine: it rewires the referenced columns into a fresh linear memory
// (§6.1), instantiates the module, and drives every pipeline morsel-wise so
// the engine's background tier-up can swap code between morsels.
func Execute(cq *CompiledQuery, q *sema.Query, eng *engine.Engine, opt ExecOptions) (*ResultSet, *ExecStats, error) {
	stats := &ExecStats{ModuleBytes: len(cq.Bin)}
	if opt.MorselRows <= 0 {
		opt.MorselRows = DefaultMorselRows
	}
	// tr drives all instrumentation below. It stays exactly opt.Trace —
	// nil when the caller asked for no tracing — so an untraced query pays
	// one pointer test per recording site and nothing more.
	tr := opt.Trace
	// Context-free instrumentation (faultpoint) finds the trace through the
	// process-wide active slot for the duration of the query.
	if tr != nil {
		prev := obs.SwapActive(tr)
		defer obs.SwapActive(prev)
	}
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// wrapErr maps the interrupt trap raised by the cancellation watchdog
	// back to the context's error, so callers see DeadlineExceeded/Canceled
	// rather than an engine-internal trap.
	wrapErr := func(err error) error {
		if errors.Is(err, rt.ErrInterrupted) && ctx.Err() != nil {
			return fmt.Errorf("core: query canceled: %w", ctx.Err())
		}
		return err
	}
	canceled := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: query canceled: %w", err)
		}
		return nil
	}

	// Effective LIMIT: a parameterized limit lives in the parameter vector
	// (cq.Limit is the value the module was first compiled with and may be
	// stale on a plan-cache hit).
	limit := cq.Limit
	if cq.LimitSlot >= 0 {
		if cq.LimitSlot >= len(opt.Params) {
			return nil, nil, fmt.Errorf("core: missing value for limit parameter ?%d", cq.LimitSlot)
		}
		limit = opt.Params[cq.LimitSlot].I
		if limit < 0 {
			return nil, nil, fmt.Errorf("core: negative LIMIT %d", limit)
		}
	}

	mod := opt.Precompiled
	if mod == nil {
		var err error
		mod, err = eng.CompileTraced(cq.Bin, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("core: engine compile: %w", err)
		}
	}

	if opt.ChunkRows != 0 && opt.ChunkRows%wmem.PageSize != 0 {
		return nil, nil, fmt.Errorf("core: ChunkRows must be a multiple of %d", wmem.PageSize)
	}
	// Tables scanned by a pipeline are chunk-rewired when chunking is on;
	// all other referenced tables (build sides) are mapped whole.
	chunked := map[int]bool{}
	if opt.ChunkRows > 0 {
		for _, p := range cq.Pipelines {
			if p.Kind == PipeScanTable {
				chunked[p.TableIdx] = true
			}
		}
	}

	// Choose the execution strategy: a worker pool when every stateful
	// pipeline can be merged afterwards, serial otherwise — with the
	// fallback recorded, never silent.
	workers := opt.Parallelism
	if workers <= 1 {
		workers = 1
	}
	mode, fallback := classifyParallel(cq, opt, workers, limit)
	if mode == parNone {
		workers = 1
	}
	// Under a shared scheduler the classified worker count is a request:
	// the lease grants what the pool's fair share allows right now. A
	// denied lease (no extra slots, or not even one after rebalancing) is
	// the forced serial fallback — recorded like every other fallback,
	// never silent.
	var lease *Lease
	if workers > 1 && opt.Scheduler != nil {
		lease = opt.Scheduler.Acquire(workers)
		if lease == nil {
			mode, workers = parNone, 1
			fallback = fallbackSlots
		} else {
			workers = 1 + lease.Extras()
			defer lease.Release()
		}
	}
	stats.Workers = workers
	stats.SerialFallback = fallback
	if fallback != "" {
		tr.Event(obs.EvSerialFallback, obs.S("reason", fallback))
		obs.Default.CounterWith(obs.MetricSerialFallbacks, obs.Label{Key: "reason", Val: fallback}).Add(1)
	}
	if workers > 1 {
		tr.Event(obs.EvParallel, obs.I("workers", int64(workers)))
	}

	// Fuel metering. A cancellable context needs metering too: the fuel
	// checks double as interruption points, which is the only way to stop
	// generated code in the middle of a morsel. That implicit budget is
	// distinct from a user Fuel budget: only the latter is reported in
	// FuelUsed and fuel trace events (the stat's documented contract).
	userFuel := opt.Fuel > 0
	meterFuel := opt.Fuel
	if !userFuel && ctx.Done() != nil {
		meterFuel = math.MaxInt64
	}

	res := &ResultSet{}
	for _, rf := range cq.ResultFields {
		res.Names = append(res.Names, rf.Name)
		res.Types = append(res.Types, rf.Type)
	}

	// drain decodes count rows from a worker's result buffer into its private
	// row slice. The decode stops as soon as the query's LIMIT is satisfied —
	// rows beyond it would be discarded anyway — and trips the worker's
	// limitHit flag so the morsel loop short-circuits via the stop path.
	drain := func(w *worker, m *wmem.Memory, count uint32) {
		for i := uint32(0); i < count; i++ {
			if limit >= 0 && int64(len(w.rows)) >= limit {
				w.limitHit = true
				return
			}
			w.rows = append(w.rows, decodeRow(m, cq, i))
		}
	}

	// Build the worker pool: every worker owns a private memory with the
	// same host columns rewired in, and a private instance of the shared
	// module (background tier-up publishes optimized code to all of them at
	// once). Worker 0 is the primary: serial pipelines and run-once output
	// pipelines execute on it.
	spRewire := tr.Begin(obs.SpanRewire)
	ws := make([]*worker, workers)
	mapped := 0
	for wi := range ws {
		w := &worker{id: wi}
		w.mem = wmem.New(cq.MinPages, 65536)
		w.mem.SetTracer(tr)
		if opt.MemoryBudgetPages > 0 {
			// The budget bounds each worker's heap: it exists to stop
			// runaway per-query allocations, and parallel-eligible pipelines
			// allocate almost nothing beyond the fixed layout.
			w.mem.SetBudget(opt.MemoryBudgetPages)
		}
		for _, cm := range cq.Columns {
			if chunked[cm.TableIdx] {
				continue // mapped chunk-by-chunk while scanning
			}
			col := q.Tables[cm.TableIdx].Table.Columns[cm.ColIdx]
			if col.MappedBytes() == 0 {
				continue
			}
			if err := w.mem.Map(cm.Base, col.Data()); err != nil {
				return nil, nil, fmt.Errorf("core: rewiring column %s.%s: %w",
					q.Tables[cm.TableIdx].Table.Name, col.Name, err)
			}
			mapped++
		}
		if len(cq.ParamSlots) > 0 {
			// The execution's parameter values become plain memory contents
			// before q_init; the shared module never changes.
			if err := writeParams(w.mem, cq.ParamSlots, opt.Params); err != nil {
				return nil, nil, err
			}
		}
		ws[wi] = w
	}
	spRewire.End(obs.I("columns", int64(mapped)), obs.I("workers", int64(workers)))

	primary := ws[0]

	// mapChunk rewires rows [start, start+n) of every referenced column of
	// table ti into the column's window (serial execution only — chunking
	// falls back, see classifyParallel).
	mapChunk := func(ti, start, n int) error {
		if err := faultpoint.Hit("core-rewire"); err != nil {
			return fmt.Errorf("core: chunk rewiring: %w", err)
		}
		for _, cm := range cq.Columns {
			if cm.TableIdx != ti {
				continue
			}
			col := q.Tables[ti].Table.Columns[cm.ColIdx]
			sz := col.Type.Size()
			lo := start * sz
			hi := (start + n) * sz
			hi = (hi + wmem.PageSize - 1) &^ (wmem.PageSize - 1)
			data := col.Data()
			if hi > len(data) {
				hi = len(data)
			}
			if lo >= hi {
				continue
			}
			if err := primary.mem.Map(cm.Base, data[lo:hi]); err != nil {
				return fmt.Errorf("core: chunk rewiring %s.%s: %w", q.Tables[ti].Table.Name, col.Name, err)
			}
		}
		return nil
	}

	spInst := tr.Begin(obs.SpanInstantiate)
	for _, w := range ws {
		w := w
		imports := engine.Imports{
			Memory: w.mem,
			Funcs: map[string]*rt.HostFunc{
				"env.result_flush": {
					Type: wasm.FuncType{Params: []wasm.ValType{wasm.I32}, Results: []wasm.ValType{wasm.I32}},
					Fn: func(env *rt.Env, args, out []uint64) {
						drain(w, env.Mem, uint32(args[0]))
						out[0] = 0
					},
				},
			},
		}
		inst, err := mod.InstantiateWithTrace(imports, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("core: instantiate: %w", err)
		}
		w.inst = inst
		if meterFuel > 0 {
			inst.SetFuel(meterFuel)
		}
	}

	if ctx.Done() != nil {
		// Watchdog: flips every instance's interrupt flag when the context
		// fires, trapping each in-flight call at its next fuel check.
		watchdogDone := make(chan struct{})
		defer close(watchdogDone)
		go func() {
			select {
			case <-ctx.Done():
				for _, w := range ws {
					w.inst.Interrupt()
				}
			case <-watchdogDone:
			}
		}()
	}

	for _, w := range ws {
		if _, err := w.inst.Call("q_init"); err != nil {
			return nil, nil, fmt.Errorf("core: q_init: %w", wrapErr(err))
		}
	}
	spInst.End(obs.I("workers", int64(workers)))

	if opt.WaitOptimized {
		// A failed background compile is not a query error: affected
		// functions keep running on baseline code, and the failure is
		// visible in CompileStats.TurbofanFailed.
		_ = mod.WaitOptimized()
	}

	// callMorsel dispatches one morsel on one worker: faultpoint check,
	// morsel count (the tier-up timeline is stamped against it), latency
	// histogram, and — only when the trace asks for Detail — a per-morsel
	// span carrying the worker id.
	callMorsel := func(w *worker, export string, begin, end int) (bool, error) {
		if ferr := faultpoint.Hit("core-morsel"); ferr != nil {
			return false, fmt.Errorf("core: %s[%d,%d): %w", export, begin, end, ferr)
		}
		tr.AddMorsel()
		tm := time.Now()
		r, err := w.inst.Call(export, uint64(uint32(begin)), uint64(uint32(end)))
		d := time.Since(tm)
		mMorselLatency.Observe(d.Nanoseconds())
		if tr != nil && tr.Detail {
			tr.AddSpan(obs.SpanMorsel+export, tm, d,
				obs.I("begin", int64(begin)), obs.I("end", int64(end)),
				obs.I("worker", int64(w.id)))
		}
		if err != nil {
			return false, fmt.Errorf("core: %s[%d,%d): %w", export, begin, end, wrapErr(err))
		}
		return r[0] != 0, nil
	}

	// runParallel drives one pipeline with the whole pool: morsels come off
	// one atomic counter (work stealing by construction), each worker runs
	// them on its private instance, and the first error or stop request
	// halts everyone.
	runParallel := func(export string, total int) error {
		var next atomic.Int64
		var stopFlag atomic.Bool
		var mu sync.Mutex
		var firstErr error
		fail := func(err error) {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			stopFlag.Store(true)
		}
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for !stopFlag.Load() {
					if lease.ShouldYield(w.id) {
						// The scheduler revoked this worker's slot for a
						// newer query's fair share: retire at the morsel
						// boundary. Remaining workers keep claiming morsels,
						// and this worker's partial state is still merged at
						// the barrier, so results are unchanged.
						return
					}
					if err := canceled(); err != nil {
						fail(err)
						return
					}
					begin := int(next.Add(int64(opt.MorselRows))) - opt.MorselRows
					if begin >= total {
						return
					}
					end := begin + opt.MorselRows
					if end > total {
						end = total
					}
					stop, err := callMorsel(w, export, begin, end)
					if err != nil {
						fail(err)
						return
					}
					if stop {
						stopFlag.Store(true)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		mu.Lock()
		defer mu.Unlock()
		return firstErr
	}

	// mergeTable is the hash-table merge barrier groups and joins share: it
	// drains every secondary worker's table through the dump export,
	// concatenates the records, presizes the primary's table, writes the
	// records through the recv export, and lets the guest merge export insert
	// them — driven morsel-wise through callMorsel, so tracing, cancellation
	// and fault injection cover the merge like any pipeline. It returns the
	// number of records drained. An error leaves the query failed, never
	// partially merged.
	mergeTable := func(m *HTMerge) (int, error) {
		var recs []byte
		records := 0
		for _, w := range ws[1:] {
			if err := canceled(); err != nil {
				return 0, err
			}
			r, err := w.inst.Call(m.DumpExport)
			if err != nil {
				return 0, fmt.Errorf("core: %s: %w", m.DumpExport, wrapErr(err))
			}
			n := int(uint32(w.inst.Global(int(m.CountGlobal))))
			recs = append(recs, w.mem.ReadBytes(uint32(r[0]), uint32(n)*m.Stride)...)
			records += n
		}
		if records == 0 {
			return 0, nil
		}
		// Grow the primary's table to its final size up front: the merge
		// loop then never rehashes mid-insertion. Keys shared between workers
		// make this an upper bound for groups.
		needed := records + int(uint32(primary.inst.Global(int(m.CountGlobal))))
		if _, err := primary.inst.Call(m.PresizeExport, uint64(uint32(needed))); err != nil {
			return 0, fmt.Errorf("core: %s: %w", m.PresizeExport, wrapErr(err))
		}
		r, err := primary.inst.Call(m.RecvExport, uint64(uint32(records)))
		if err != nil {
			return 0, fmt.Errorf("core: %s: %w", m.RecvExport, wrapErr(err))
		}
		primary.mem.WriteBytes(uint32(r[0]), recs)
		for begin := 0; begin < records; begin += opt.MorselRows {
			if err := canceled(); err != nil {
				return 0, err
			}
			end := min(begin+opt.MorselRows, records)
			if _, err := callMorsel(primary, m.MergeExport, begin, end); err != nil {
				return 0, err
			}
		}
		return records, nil
	}

	// mergeGroups is the parGroup pipeline barrier: the secondary workers'
	// partial groups are merged into the primary's table.
	mergeGroups := func() error {
		sp := tr.Begin(obs.SpanMerge)
		records, err := mergeTable(&cq.GroupMerge.HTMerge)
		if err != nil {
			return err
		}
		stats.GroupsMerged = records
		tr.Event(obs.EvGroupMerge, obs.I("records", int64(records)),
			obs.I("workers", int64(workers)))
		sp.End(obs.I("records", int64(records)))
		return nil
	}

	// mergeSortRuns has every worker quicksort its private tuple run (the
	// given run-once export) concurrently, k-way merges the sorted runs
	// host-side with the emitLess-mirroring comparator, and installs the
	// merged array on the primary — the parSort pipeline barrier.
	mergeSortRuns := func(export string) error {
		sm := cq.SortMerge
		sp := tr.Begin(obs.SpanMerge)
		var wg sync.WaitGroup
		errs := make([]error, len(ws))
		for i, w := range ws {
			wg.Add(1)
			go func(i int, w *worker) {
				defer wg.Done()
				if _, err := w.inst.Call(export, 0, 0); err != nil {
					errs[i] = fmt.Errorf("core: %s: %w", export, wrapErr(err))
				}
			}(i, w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		total := 0
		runs := make([][]byte, 0, len(ws))
		for _, w := range ws {
			base := uint32(w.inst.Global(int(sm.BaseGlobal)))
			n := uint32(w.inst.Global(int(sm.CountGlobal)))
			runs = append(runs, w.mem.ReadBytes(base, n*sm.Stride))
			total += int(n)
		}
		merged := mergeSortedRuns(sm, runs)
		r, err := primary.inst.Call(sm.RecvExport, uint64(uint32(total)))
		if err != nil {
			return fmt.Errorf("core: %s: %w", sm.RecvExport, wrapErr(err))
		}
		primary.mem.WriteBytes(uint32(r[0]), merged)
		tr.Event(obs.EvSortMerge, obs.I("tuples", int64(total)),
			obs.I("workers", int64(workers)))
		sp.End(obs.I("tuples", int64(total)))
		return nil
	}

	// mergeJoin is the join pipeline barrier: it merges every secondary
	// worker's private build partition into the primary's table, then
	// replicates the primary's completed table into every secondary so the
	// parallel probe sees the full build side.
	mergeJoin := func(jm *JoinMerge) error {
		sp := tr.Begin(obs.SpanMerge)
		records, err := mergeTable(&jm.HTMerge)
		if err != nil {
			return err
		}
		// Replicate the completed table to every secondary — their partial
		// partitions must be replaced even when no records moved the other
		// way, or the parallel probe would miss the primary's entries. A
		// verbatim image is position-correct because slot indexes depend
		// only on hash and mask, which travel with it.
		cap := uint32(primary.inst.Global(int(jm.MaskGlobal))) + 1
		count := uint64(uint32(primary.inst.Global(int(jm.CountGlobal))))
		img := primary.mem.ReadBytes(uint32(primary.inst.Global(int(jm.BaseGlobal))), cap*jm.Stride)
		for _, w := range ws[1:] {
			if err := canceled(); err != nil {
				return err
			}
			r, err := w.inst.Call(jm.InstallExport, uint64(cap), count)
			if err != nil {
				return fmt.Errorf("core: %s: %w", jm.InstallExport, wrapErr(err))
			}
			w.mem.WriteBytes(uint32(r[0]), img)
		}
		stats.JoinPartitionsMerged += len(ws) - 1
		tr.Event(obs.EvJoinMerge, obs.I("records", int64(records)),
			obs.I("partitions", int64(len(ws)-1)), obs.I("workers", int64(workers)))
		sp.End(obs.I("records", int64(records)))
		return nil
	}

	// The last table scan is the probe pipeline the terminal merge barriers
	// on; earlier scans are join build pipelines with their own barriers.
	lastScan := -1
	for i, p := range cq.Pipelines {
		if p.Kind == PipeScanTable {
			lastScan = i
		}
	}

	spRun := tr.Begin(obs.SpanExecute)
	aggMerged, groupMerged, sortMerged := false, false, false
	for pi, p := range cq.Pipelines {
		spPipe := tr.Begin(obs.SpanPipeline + p.Export)
		var total int
		switch p.Kind {
		case PipeScanTable:
			total = q.Tables[p.TableIdx].Table.Rows()
		case PipeScanSlots:
			total = int(uint32(primary.inst.Global(int(p.CountGlobal)))) + 1
		case PipeScanArray:
			total = int(uint32(primary.inst.Global(int(p.CountGlobal))))
		case PipeScanBuckets:
			ctrl := uint32(primary.inst.Global(int(p.CountGlobal)))
			total = int(primary.mem.U32(ctrl+4)) + 1
		case PipeRunOnce:
			// A canceled context must be observed between consecutive
			// run-once pipelines too, not only in morsel loops.
			if err := canceled(); err != nil {
				return nil, nil, err
			}
			if mode == parAgg && !aggMerged {
				// Pipeline barrier: fold every worker's partial aggregation
				// state into the primary before its output pipeline runs.
				mergeAggGlobals(cq, ws)
				aggMerged = true
			}
			if mode == parSort && !sortMerged {
				// Sort barrier: this run-once pipeline is the quicksort call.
				// Run it on every worker concurrently, merge the sorted runs
				// into the primary, and skip the primary's (already spent)
				// serial invocation.
				sortMerged = true
				if err := mergeSortRuns(p.Export); err != nil {
					return nil, nil, err
				}
				spPipe.End()
				continue
			}
			if _, err := primary.inst.Call(p.Export, 0, 0); err != nil {
				return nil, nil, fmt.Errorf("core: %s: %w", p.Export, wrapErr(err))
			}
			spPipe.End()
			continue
		}
		if workers > 1 && p.Kind == PipeScanTable {
			// Parallel morsel dispatch (classifyParallel guarantees the
			// pipeline's state is mergeable afterwards).
			if err := runParallel(p.Export, total); err != nil {
				return nil, nil, err
			}
			stats.PipelinesParallel++
			// Join barrier: if this scan was a build pipeline, merge every
			// worker's partition and replicate the completed table before
			// anything probes it. Fires in every parallel mode — downstream
			// group/sort/agg merges compose after the probe.
			for _, jm := range cq.JoinMerges {
				if jm.BuildPipeline == pi {
					if err := mergeJoin(jm); err != nil {
						return nil, nil, err
					}
				}
			}
			if mode == parGroup && !groupMerged && pi == lastScan {
				// Group barrier: the parallel scan just filled every worker's
				// private group table; merge them into the primary before any
				// downstream pipeline reads the groups.
				groupMerged = true
				if err := mergeGroups(); err != nil {
					return nil, nil, err
				}
			}
			spPipe.End(obs.I("rows", int64(total)), obs.I("workers", int64(workers)))
			continue
		}
		stats.PipelinesSerial++
		stop := false
		if p.Kind == PipeScanTable && chunked[p.TableIdx] {
			// Chunked rewiring: remap the window, then drive morsels with
			// window-relative row ranges.
			for cs := 0; cs < total && !stop; cs += opt.ChunkRows {
				ce := cs + opt.ChunkRows
				if ce > total {
					ce = total
				}
				if err := mapChunk(p.TableIdx, cs, ce-cs); err != nil {
					return nil, nil, err
				}
				for begin := 0; begin < ce-cs && !stop; begin += opt.MorselRows {
					if err := canceled(); err != nil {
						return nil, nil, err
					}
					end := begin + opt.MorselRows
					if end > ce-cs {
						end = ce - cs
					}
					var err error
					if stop, err = callMorsel(primary, p.Export, begin, end); err != nil {
						return nil, nil, err
					}
					stop = stop || primary.limitHit
				}
			}
			spPipe.End(obs.I("rows", int64(total)))
			if userFuel {
				tr.Event(obs.EvFuel, obs.I("remaining", primary.inst.FuelLeft()))
			}
			continue
		}
		for begin := 0; begin < total && !stop; begin += opt.MorselRows {
			if err := canceled(); err != nil {
				return nil, nil, err
			}
			end := begin + opt.MorselRows
			if end > total {
				end = total
			}
			var err error
			if stop, err = callMorsel(primary, p.Export, begin, end); err != nil {
				return nil, nil, err
			}
			// Host-side LIMIT guard: once the drain has cq.Limit rows, the
			// remaining morsels cannot contribute — short-circuit them.
			stop = stop || primary.limitHit
		}
		spPipe.End(obs.I("rows", int64(total)))
		// Fuel checkpoint at every pipeline boundary on metered queries —
		// the audit trail of where the budget went.
		if userFuel {
			tr.Event(obs.EvFuel, obs.I("remaining", primary.inst.FuelLeft()))
		}
	}
	// Drain the rows still in each worker's buffer; the merge for parallel
	// scans is this concatenation, in worker order.
	for _, w := range ws {
		drain(w, w.mem, uint32(w.inst.Global(int(cq.CursorGlobal))))
	}
	for _, w := range ws {
		res.Rows = append(res.Rows, w.rows...)
	}
	spRun.End()

	if opt.DrainBackground {
		// Complete the tier-up timeline (and Turbofan timing) without having
		// perturbed adaptive behavior during the query. A failed background
		// compile is not a query error — see WaitOptimized above.
		_ = mod.WaitOptimized()
	}

	// Fold the runtime counters into the flat struct, and mirror them onto
	// the trace and the process-wide metrics.
	stats.TurbofanFailed = mod.Stats().TurbofanFailed
	for _, w := range ws {
		lo, tf := w.inst.TierCalls()
		stats.MorselsLiftoff += lo
		stats.MorselsTurbofan += tf
		stats.PeakMemBytes += uint64(w.mem.Pages()) * wmem.PageSize
		mPeakHeapPages.SetMax(int64(w.mem.Pages()))
		if workers > 1 {
			tr.Set(obs.WorkerCtr(w.id, obs.CtrMorselsLiftoff), int64(lo))
			tr.Set(obs.WorkerCtr(w.id, obs.CtrMorselsTurbofan), int64(tf))
		}
	}
	if userFuel {
		if left := primary.inst.FuelLeft(); left >= 0 {
			stats.FuelUsed = opt.Fuel - left
		}
		mFuelConsumed.Add(stats.FuelUsed)
	}
	if tr != nil {
		tr.Set(obs.CtrMorselsLiftoff, int64(stats.MorselsLiftoff))
		tr.Set(obs.CtrMorselsTurbofan, int64(stats.MorselsTurbofan))
		tr.Set(obs.CtrTurbofanFailed, int64(stats.TurbofanFailed))
		tr.Set(obs.CtrModuleBytes, int64(stats.ModuleBytes))
		tr.Set(obs.CtrFuelUsed, stats.FuelUsed)
		tr.Set(obs.CtrPeakMemBytes, int64(stats.PeakMemBytes))
		tr.Set(obs.CtrWorkers, int64(stats.Workers))
		tr.Set(obs.CtrPipelinesParallel, int64(stats.PipelinesParallel))
		tr.Set(obs.CtrPipelinesSerial, int64(stats.PipelinesSerial))
		tr.Set(obs.CtrGroupsMerged, int64(stats.GroupsMerged))
		tr.Set(obs.CtrJoinPartitionsMerged, int64(stats.JoinPartitionsMerged))
	}

	if limit >= 0 && int64(len(res.Rows)) > limit {
		res.Rows = res.Rows[:limit]
	}
	// SQL semantics: a global aggregation over zero input rows still yields
	// one row (COUNT = 0, SUM/MIN/MAX = 0 by this system's convention) —
	// unless a HAVING clause exists, in which case the generated code already
	// evaluated it over the zero group and its verdict (zero rows) stands.
	if len(res.Rows) == 0 && q.Grouped && len(q.GroupBy) == 0 && len(q.Having) == 0 && (limit != 0) {
		res.Rows = append(res.Rows, zeroAggregateRow(q, opt.Params))
	}
	return res, stats, nil
}

// zeroAggregateRow fabricates the zero-group output row. params resolves
// hoisted literals so the parameterized query yields the same row the
// constant-folded one would.
func zeroAggregateRow(q *sema.Query, params []types.Value) []types.Value {
	out := make([]types.Value, len(q.Select))
	for i, oc := range q.Select {
		out[i] = evalZero(oc.Expr, q, params)
	}
	return out
}

func evalZero(e sema.Expr, q *sema.Query, params []types.Value) types.Value {
	switch x := e.(type) {
	case *sema.Const:
		return x.V
	case *sema.Param:
		if x.Idx < len(params) {
			return params[x.Idx]
		}
	case *sema.AggRef:
		t := q.Aggs[x.Idx].T
		switch t.Kind {
		case types.Float64:
			return types.NewFloat64(0)
		case types.Decimal:
			return types.NewDecimal(0, t.Prec, t.Scale)
		case types.Int32:
			return types.NewInt32(0)
		case types.Date:
			return types.NewDate(0)
		default:
			return types.NewInt64(0)
		}
	case *sema.Binary:
		l := evalZero(x.L, q, params)
		if x.Op == sema.OpDiv {
			return types.NewFloat64(0) // 0/0 reported as 0
		}
		return l
	case *sema.Cast:
		v := evalZero(x.E, q, params)
		if x.To.Kind == types.Float64 {
			return types.NewFloat64(0)
		}
		return v
	}
	return types.Value{Type: e.Type()}
}

// decodeRow reads result row i from guest memory.
func decodeRow(m *wmem.Memory, cq *CompiledQuery, i uint32) []types.Value {
	base := cq.ResultBase + i*cq.ResultStride
	out := make([]types.Value, len(cq.ResultFields))
	for fi, rf := range cq.ResultFields {
		addr := base + rf.Offset
		switch rf.Type.Kind {
		case types.Bool:
			out[fi] = types.NewBool(m.U8(addr) != 0)
		case types.Int32:
			out[fi] = types.NewInt32(int32(m.U32(addr)))
		case types.Date:
			out[fi] = types.NewDate(int32(m.U32(addr)))
		case types.Int64:
			out[fi] = types.NewInt64(int64(m.U64(addr)))
		case types.Decimal:
			out[fi] = types.NewDecimal(int64(m.U64(addr)), rf.Type.Prec, rf.Type.Scale)
		case types.Float64:
			out[fi] = types.NewFloat64(rtF64(m.U64(addr)))
		case types.Char:
			b := m.ReadBytes(addr, uint32(rf.Type.Length))
			end := len(b)
			for end > 0 && b[end-1] == ' ' {
				end--
			}
			out[fi] = types.NewChar(string(b[:end]), rf.Type.Length)
		}
	}
	return out
}

func rtF64(bits uint64) float64 { return rt.F64(bits) }
