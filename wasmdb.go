// Package wasmdb is a main-memory SQL engine that compiles query plans to
// WebAssembly and delegates JIT compilation, optimization, and adaptive
// execution to an embedded two-tier engine — a from-scratch reproduction of
//
//	Haffner & Dittrich: "A Simplified Architecture for Fast, Adaptive
//	Compilation and Execution of SQL Queries" (EDBT 2023).
//
// Queries run on one of four backends sharing the same parser, binder, and
// planner:
//
//   - BackendWasm (the paper's architecture): data-centric compilation to
//     Wasm with ad-hoc generated, monomorphic library code, executed
//     adaptively (fast baseline tier first, optimizing tier swapped in
//     morsel-wise as background compilation finishes);
//   - BackendHyperLike: the HyPer-style comparison point — data-centric
//     Wasm, but with type-agnostic library hash tables, callback sorting,
//     predicated selection, and an LLVM-grade (slow) optimizing pipeline;
//   - BackendVectorized: the MonetDB/X100-style comparison point —
//     interpretation over pre-compiled generic vector kernels with
//     selection vectors (zero per-query compilation);
//   - BackendVolcano: tuple-at-a-time iterators with boxed values.
package wasmdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"wasmdb/internal/autopilot"
	"wasmdb/internal/catalog"
	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/obs"
	"wasmdb/internal/plan"
	"wasmdb/internal/plancache"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/types"
	"wasmdb/internal/vectorized"
	"wasmdb/internal/volcano"
)

// Backend selects a query execution architecture.
type Backend int

// Available backends.
const (
	// BackendWasm compiles to WebAssembly and executes adaptively
	// (Liftoff-tier immediately, TurboFan-tier swapped in mid-query).
	BackendWasm Backend = iota
	// BackendWasmLiftoff forces baseline-tier-only execution.
	BackendWasmLiftoff
	// BackendWasmTurbofan compiles fully with the optimizing tier before
	// executing.
	BackendWasmTurbofan
	// BackendHyperLike is the HyPer-style adaptive baseline.
	BackendHyperLike
	// BackendVectorized is the DuckDB/X100-style baseline.
	BackendVectorized
	// BackendVolcano is the PostgreSQL-style iterator baseline.
	BackendVolcano
	// BackendAuto lets the autopilot choose per query: interpret
	// (vectorized) versus compile (liftoff-only versus adaptive tier-up),
	// and the worker-pool size — from the planner's cardinality estimates,
	// corrected on warm plan-cache hits by the execution feedback recorded
	// for the query's fingerprint. See WithAutoTuning.
	BackendAuto
)

func (b Backend) String() string {
	switch b {
	case BackendWasm:
		return "wasm-adaptive"
	case BackendWasmLiftoff:
		return "wasm-liftoff"
	case BackendWasmTurbofan:
		return "wasm-turbofan"
	case BackendHyperLike:
		return "hyper-like"
	case BackendVectorized:
		return "vectorized"
	case BackendVolcano:
		return "volcano"
	case BackendAuto:
		return "auto"
	}
	return "unknown"
}

// hyperOptRounds models LLVM-grade optimization cost for the HyPer-like
// backend (cf. engine.Config.OptRounds).
const hyperOptRounds = 10

// DB is an in-memory database.
type DB struct {
	// mu is a readers-writer lock: queries (including prepared executions)
	// share it, DDL and data loads take it exclusively. Concurrent identical
	// queries therefore really race on the plan cache, which collapses them
	// into one compilation.
	mu     sync.RWMutex
	cat    *catalog.Catalog
	pcache *plancache.Cache
}

// Open creates an empty database.
func Open() *DB {
	return &DB{cat: catalog.New(), pcache: plancache.New(0, 0)}
}

// LoadTPCH populates the database with TPC-H tables at the given scale
// factor (deterministic for a fixed seed).
func (db *DB) LoadTPCH(scaleFactor float64, seed int64) error {
	cat, err := tpch.Generate(scaleFactor, seed)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, name := range cat.Names() {
		t, _ := cat.Table(name)
		if err := db.cat.Add(t); err != nil {
			return err
		}
	}
	db.pcache.Flush()
	return nil
}

// TPCHQuery returns the SQL text of a reproduced TPC-H query ("Q1", "Q3",
// "Q6", "Q12", "Q14").
func TPCHQuery(id string) (string, bool) {
	q, ok := tpch.Queries[id]
	return q, ok
}

// Exec runs a statement without a result set (CREATE TABLE, INSERT).
func (db *DB) Exec(src string) error {
	st, err := sql.Parse(src)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	switch x := st.(type) {
	case *sql.CreateTableStmt:
		var defs []catalog.ColumnDef
		for _, c := range x.Columns {
			defs = append(defs, catalog.ColumnDef{Name: c.Name, Type: c.Type})
		}
		if _, err := db.cat.Create(x.Name, defs); err != nil {
			return err
		}
		// DDL invalidates every cached plan: fingerprints embed the schema
		// version, so stale entries could never hit again — flushing just
		// frees their code immediately.
		db.pcache.Flush()
		return nil
	case *sql.InsertStmt:
		return db.execInsert(x)
	case *sql.SelectStmt:
		return fmt.Errorf("wasmdb: use Query for SELECT statements")
	}
	return fmt.Errorf("wasmdb: unsupported statement")
}

func (db *DB) execInsert(x *sql.InsertStmt) error {
	tbl, err := db.cat.Table(x.Table)
	if err != nil {
		return err
	}
	for _, row := range x.Rows {
		if len(row) != len(tbl.Columns) {
			return fmt.Errorf("wasmdb: INSERT expects %d values, got %d", len(tbl.Columns), len(row))
		}
		vals := make([]types.Value, len(row))
		for i, e := range row {
			v, err := literalValue(e, tbl.Columns[i].Type)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		if err := tbl.AppendRow(vals...); err != nil {
			return err
		}
	}
	return nil
}

func literalValue(e sql.Expr, t types.Type) (types.Value, error) {
	switch x := e.(type) {
	case *sql.IntLit:
		switch t.Kind {
		case types.Int32:
			return types.NewInt32(int32(x.V)), nil
		case types.Int64:
			return types.NewInt64(x.V), nil
		case types.Float64:
			return types.NewFloat64(float64(x.V)), nil
		case types.Decimal:
			return types.NewDecimal(x.V*types.Pow10(t.Scale), t.Prec, t.Scale), nil
		}
	case *sql.FloatLit:
		if t.Kind == types.Float64 {
			return types.NewFloat64(x.V), nil
		}
	case *sql.NumericLit:
		switch t.Kind {
		case types.Float64:
			raw, err := types.ParseDecimal(x.Text, 15)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat64(float64(raw) / 1e15), nil
		case types.Decimal:
			raw, err := types.ParseDecimal(x.Text, t.Scale)
			if err != nil {
				return types.Value{}, err
			}
			return types.NewDecimal(raw, t.Prec, t.Scale), nil
		}
	case *sql.StringLit:
		if t.Kind == types.Char {
			return types.NewChar(x.V, t.Length), nil
		}
	case *sql.BoolLit:
		if t.Kind == types.Bool {
			return types.NewBool(x.V), nil
		}
	case *sql.DateLit:
		if t.Kind == types.Date {
			return types.NewDate(x.Days), nil
		}
	}
	return types.Value{}, fmt.Errorf("wasmdb: literal incompatible with column type %s", t)
}

// Typed guardrail errors. Match with errors.Is against errors returned from
// Query/QueryContext.
var (
	// ErrFuelExhausted reports that a query exceeded its WithFuel budget.
	ErrFuelExhausted = engine.ErrFuelExhausted
	// ErrMemoryLimit reports that a query exceeded its WithMemoryLimit heap
	// budget.
	ErrMemoryLimit = engine.ErrMemoryLimit
)

// Option configures a Query call.
type Option func(*queryOpts)

type queryOpts struct {
	backend      Backend
	morselRows   int
	wait         bool
	timeout      time.Duration
	fuel         int64
	memBudget    uint32
	trace        *obs.Trace
	parallelism  int
	planCacheOff bool
	scheduler    *core.Scheduler
	requestID    string
	onRecord     func(QueryLogRecord)
}

// Trace is a query-scoped recording of timed spans (parse, compile tiers,
// per-pipeline execution), point events (tier-up, memory growth, fuel
// checkpoints), and counters. Create with NewTrace, attach with WithTrace,
// and export with its WriteTraceEvents method (Chrome trace_event JSON,
// viewable in Perfetto or chrome://tracing).
type Trace = obs.Trace

// NewTrace creates an empty query trace.
func NewTrace() *Trace { return obs.NewTrace() }

// Metrics is the process-wide metrics registry: monotonic counters, gauges,
// and latency histograms accumulated across all queries.
type Metrics = obs.Registry

// Metrics returns the process-wide metrics registry shared by every DB in
// the process (queries by backend, compiles by tier, tier-up latency, fuel
// consumed, peak heap pages, morsel latency). Render with its Dump method.
func (db *DB) Metrics() *Metrics { return obs.Default }

// WriteTraceEvents serializes one or more query traces as Chrome
// trace_event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing. Each trace renders as its own labeled lane.
func WriteTraceEvents(w io.Writer, traces ...*Trace) error {
	return obs.WriteTraceEvents(w, traces...)
}

// WithBackend selects the execution backend (default BackendWasm).
func WithBackend(b Backend) Option { return func(o *queryOpts) { o.backend = b } }

// WithAutoTuning is WithBackend(BackendAuto): the engine picks the
// execution strategy per query — interpretation for queries too small to
// amortize compilation, baseline-only compilation for the mid band,
// adaptive tier-up plus a sized worker pool for large ones. The decision is
// deterministic given the query shape, the catalog statistics, and the
// feedback recorded for the shape's plan-cache fingerprint; Stats.Auto and
// EXPLAIN ANALYZE report what was chosen and why. An explicit
// WithParallelism overrides the worker half of the decision.
func WithAutoTuning() Option { return func(o *queryOpts) { o.backend = BackendAuto } }

// WithMorselRows overrides the morsel size for the Wasm backends.
func WithMorselRows(n int) Option { return func(o *queryOpts) { o.morselRows = n } }

// WithWaitOptimized blocks execution until background optimization
// completes — useful when benchmarking pure optimized-tier throughput.
func WithWaitOptimized() Option { return func(o *queryOpts) { o.wait = true } }

// WithTimeout bounds the query's wall-clock time. On expiry the query stops
// — even mid-morsel inside generated code — and returns an error matching
// context.DeadlineExceeded.
func WithTimeout(d time.Duration) Option { return func(o *queryOpts) { o.timeout = d } }

// WithFuel bounds the query to n units of guest execution (one unit per
// function entry and per taken loop back-edge). Exhaustion returns an error
// matching ErrFuelExhausted. Applies to the Wasm backends.
func WithFuel(n int64) Option { return func(o *queryOpts) { o.fuel = n } }

// WithParallelism runs the query's morsel loops on a pool of n workers, each
// owning a private instance and linear memory created from the shared
// compiled module (n <= 0 means GOMAXPROCS). Scans, keyless aggregation,
// single-level GROUP BY over a scan, and ORDER BY over a scan parallelize:
// per-worker partial state (result buffers, aggregate globals, group hash
// tables, sorted runs) is merged by the host at pipeline barriers.
// Pipelines whose state the host cannot merge — hash-join builds,
// library-style tables and sorts, float SUM/group-key orderings — run
// serially; the trace and Stats record the fallback reason. Applies to the
// Wasm backends; result row order may differ from serial execution for
// unordered scan and group-by queries.
func WithParallelism(n int) Option {
	return func(o *queryOpts) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		o.parallelism = n
	}
}

// Scheduler is a shared global morsel worker-slot pool: attach one (via
// WithScheduler) to every query of a concurrent workload and intra-query
// worker pools are multiplexed across queries with fair time-slicing —
// WithParallelism becomes a request, the scheduler's fair share under the
// current load decides the grant, and slots of long-running queries are
// revoked at morsel boundaries when newer queries arrive. A query denied
// even one extra worker runs serially with Stats.SerialFallback =
// "worker-slots-exhausted". A Scheduler is safe for concurrent use.
type Scheduler = core.Scheduler

// NewScheduler creates a worker-slot pool of the given size (<= 0 means
// GOMAXPROCS). Slots count extra workers beyond each query's own goroutine.
func NewScheduler(slots int) *Scheduler { return core.NewScheduler(slots) }

// WithScheduler places the query's morsel workers under the shared global
// scheduler: the effective pool size becomes min(WithParallelism request,
// the scheduler's fair-share grant). Applies to the Wasm backends.
func WithScheduler(s *Scheduler) Option { return func(o *queryOpts) { o.scheduler = s } }

// WithTrace records the query's full execution timeline — phase spans,
// tier-up events, memory growth, fuel checkpoints — into tr. The query
// additionally waits for background optimization to settle before
// returning (without changing adaptive behavior during execution), so the
// tier-up timeline in tr is complete.
func WithTrace(tr *Trace) Option { return func(o *queryOpts) { o.trace = tr } }

// QueryLogRecord is one query's structured log record: identity (SQL, query
// hash, plan fingerprint, request ID), the adaptive timeline (backend, final
// dispatch tier, tier-ups with morsel indices, plan-cache outcome),
// parallelism grant and serial-fallback reason, resource use (fuel, peak
// memory, rows), and the query's QueryProfile inline (one "<layer>_ns" key
// per layer, total_ns, other_ns, counters). It serializes as one JSON
// object (see obs.NewWriterSink for the JSON-lines sink the server uses).
type QueryLogRecord = obs.QueryLogRecord

// FlightRecorder is a bounded ring of recently captured queries — every
// error, every slow query, and a 1-in-N sample — dumpable as Chrome
// trace_event JSON. See obs.NewFlightRecorder.
type FlightRecorder = obs.FlightRecorder

// NewFlightRecorder creates a flight recorder holding up to capacity entries
// and sampling one in sampleEvery ordinary queries (zero values select 256
// and "no sampling" respectively).
func NewFlightRecorder(capacity, sampleEvery int) *FlightRecorder {
	return obs.NewFlightRecorder(capacity, sampleEvery)
}

// WithQueryLog invokes fn with the query's structured log record after
// execution finishes — on success and on error alike (the record's Error
// field distinguishes them). fn runs synchronously on the query path, so it
// should only hand the record off (obs.QueryLog is the non-blocking
// asynchronous consumer the server uses).
func WithQueryLog(fn func(QueryLogRecord)) Option {
	return func(o *queryOpts) { o.onRecord = fn }
}

// WithRequestID tags the query's trace and log record with the serving-layer
// request ID that carried it.
func WithRequestID(id string) Option { return func(o *queryOpts) { o.requestID = id } }

// WithPlanCache enables or disables the compiled-query plan cache for this
// query (default on). With the cache on, value-carrying literals (comparison
// operands, LIKE needles, LIMIT counts) are hoisted into a writable
// parameter region of linear memory, so queries differing only in those
// literals share one compiled module — and its accumulated TurboFan tier-up.
// With the cache off, literals compile as constants and nothing is cached or
// reused. Applies to the Wasm backends.
func WithPlanCache(enabled bool) Option {
	return func(o *queryOpts) { o.planCacheOff = !enabled }
}

// WithMemoryLimit caps the query's linear-memory heap at roughly maxBytes
// (rounded up to whole 64 KiB Wasm pages). A query that tries to grow
// beyond the cap returns an error matching ErrMemoryLimit. Applies to the
// Wasm backends.
func WithMemoryLimit(maxBytes uint64) Option {
	return func(o *queryOpts) {
		pages := (maxBytes + 64*1024 - 1) / (64 * 1024)
		if pages == 0 {
			pages = 1
		}
		if pages > 65536 {
			pages = 65536
		}
		o.memBudget = uint32(pages)
	}
}

// QueryProfile is one query's execution profile: the wall clock split
// across a fixed, disjoint layer list (parse, sema, plan, codegen, decode,
// validate, liftoff, rewire, instantiate, pipelines, merge, admission) plus
// Turbofan beside it, Total and the uncovered Other; the executor counters;
// and the plan-cache, autopilot, serial-fallback and tier-timeline facts.
// Stats, the query log, EXPLAIN ANALYZE and the autopilot's feedback are
// all views of it.
type QueryProfile = obs.QueryProfile

// Stats describes where query time went: the query's QueryProfile (its
// fields — Parse … Admission, Turbofan, Total, Other, the morsel and merge
// counters, SerialFallback, Auto, AutoReason, … — are promoted), the
// backend it was asked to run on, and two sums kept for the paper's
// Fig. 10 split.
type Stats struct {
	Backend Backend
	QueryProfile
	// Translate is SQL→plan→Wasm code generation: parse, sema, plan, and
	// codegen.
	Translate time.Duration
	// Execute is setup plus execution: rewire, instantiate, pipelines, and
	// merge barriers.
	Execute time.Duration
}

// newStats is the Stats view of a query profile.
func newStats(b Backend, p QueryProfile) Stats {
	return Stats{Backend: b, QueryProfile: p, Translate: p.TranslateTime(), Execute: p.ExecuteTime()}
}

// Result is a decoded result set.
type Result struct {
	Columns []string
	rows    [][]types.Value
	Stats   Stats
}

// NumRows returns the number of result rows.
func (r *Result) NumRows() int { return len(r.rows) }

// Row renders row i as strings.
func (r *Result) Row(i int) []string {
	out := make([]string, len(r.rows[i]))
	for c, v := range r.rows[i] {
		out[c] = v.String()
	}
	return out
}

// Value returns the raw value at (row, col): int64/float64/string/bool.
func (r *Result) Value(row, col int) any {
	v := r.rows[row][col]
	switch v.Type.Kind {
	case types.Bool:
		return v.I != 0
	case types.Float64:
		return v.F
	case types.Char:
		return v.S
	case types.Decimal:
		return float64(v.I) / float64(types.Pow10(v.Type.Scale))
	case types.Date:
		return types.FormatDate(int32(v.I))
	default:
		return v.I
	}
}

// Format renders the result as an aligned text table.
func (r *Result) Format() string {
	var sb strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(r.rows))
	for i := range r.rows {
		rendered[i] = r.Row(i)
		for c, s := range rendered[i] {
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, c := range r.Columns {
		fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
	}
	sb.WriteString("\n")
	for i := range r.Columns {
		sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
	}
	sb.WriteString("\n")
	for _, row := range rendered {
		for c, s := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[c], s)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Query plans and executes a SELECT statement.
func (db *DB) Query(src string, opts ...Option) (*Result, error) {
	return db.QueryContext(context.Background(), src, opts...)
}

// QueryContext plans and executes a SELECT statement under ctx: when the
// context is canceled or its deadline expires, execution stops — including
// inside a running morsel of generated code — and the returned error matches
// ctx.Err(). WithTimeout layers a per-query deadline on top of ctx.
func (db *DB) QueryContext(ctx context.Context, src string, opts ...Option) (*Result, error) {
	return db.queryContext(ctx, src, nil, opts...)
}

// queryContext is the shared execution path behind Query and Stmt.Query.
// args carries the values for the statement's explicit ? placeholders (nil
// for ad-hoc queries, which must not contain placeholders).
//
// It wraps runQuery with the always-on telemetry: every query — success or
// error — records into a trace (the caller's via WithTrace, or an internal
// one), lands one observation in the query_latency_ns{backend,tier,cache}
// histogram, and yields a structured QueryLogRecord to the WithQueryLog
// callback. The trace is read once, into the QueryProfile that Stats, the
// log record and the autopilot feedback are views of. The telemetry cost
// off the serving path is that one trace plus one labeled histogram lookup,
// so it stays on unconditionally.
func (db *DB) queryContext(ctx context.Context, src string, args []types.Value, opts ...Option) (*Result, error) {
	o := queryOpts{}
	for _, f := range opts {
		f(&o)
	}
	tr := o.trace
	if tr == nil {
		tr = obs.NewTrace()
	}
	if tr.Label == "" {
		tr.Label = src
	}
	if o.requestID != "" {
		tr.RequestID = o.requestID
	}

	start := time.Now()
	res, autoKey, err := db.runQuery(ctx, src, args, &o, tr)
	total := time.Since(start)
	if res != nil {
		tr.Set(obs.CtrResultRows, int64(res.NumRows()))
	}
	prof := obs.NewQueryProfile(tr, total)
	if res != nil {
		res.Stats = newStats(o.backend, prof)
		if autoKey != "" {
			// Close the feedback loop: store what actually happened under
			// this fingerprint, so the next decision for the shape corrects
			// itself. The write goes through the cache's own lock —
			// concurrent warm hits replace the slot whole, never tear it —
			// and the key embeds the schema version, so a write racing a
			// DDL flush lands in a slot no later query reads.
			db.pcache.RecordFeedback(autoKey, newFeedback(prof))
		}
	}

	rec := prof.Record(tr)
	rec.SQL = src
	rec.QueryHash = obs.HashQuery(src)
	rec.Backend = o.backend.String()
	if err != nil {
		rec.Error = err.Error()
	}
	cache := rec.PlanCache
	if cache == "" {
		cache = "off"
	}
	obs.Default.HistogramWith(obs.MetricQueryLatency,
		obs.Label{Key: "backend", Val: rec.Backend},
		obs.Label{Key: "tier", Val: rec.Tier},
		obs.Label{Key: "cache", Val: cache},
	).Observe(total.Nanoseconds())
	if o.onRecord != nil {
		o.onRecord(rec)
	}
	return res, err
}

// newFeedback is the plan-cache feedback view of a query profile.
func newFeedback(p QueryProfile) plancache.Feedback {
	fb := plancache.Feedback{
		Rows:              int64(p.Rows),
		ExecNs:            (p.Pipelines + p.Merge).Nanoseconds(),
		Morsels:           int64(p.MorselsLiftoff + p.MorselsTurbofan),
		TierUpMorsel:      p.FirstSwitchMorsel,
		Workers:           p.Workers,
		SerialFallback:    p.SerialFallback,
		FallbackIntrinsic: core.FallbackIntrinsic(p.SerialFallback),
		Choice:            p.Auto,
	}
	if fb.Morsels > 0 {
		fb.MorselNs = fb.ExecNs / fb.Morsels
	}
	return fb
}

// runQuery is the execution path proper: parse → analyze → bind → plan →
// compile (through the plan cache) → execute. For a BackendAuto query it also
// returns the key its execution feedback is stored under (the shape's
// adaptive-tier fingerprint). The per-morsel hot path stays cheap: one
// atomic add per morsel, spans only at phase granularity.
func (db *DB) runQuery(ctx context.Context, src string, args []types.Value, o *queryOpts, tr *obs.Trace) (*Result, string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return nil, "", fmt.Errorf("wasmdb: query canceled: %w", err)
	}

	sp := tr.Begin(obs.SpanParse)
	stmt, err := sql.ParseSelect(src)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	sp = tr.Begin(obs.SpanSema)
	q, err := sema.Analyze(stmt, db.cat)
	sp.End()
	if err != nil {
		return nil, "", err
	}

	// Bind explicit ? placeholders. An ad-hoc query must not contain any;
	// prepared execution must supply exactly one value per placeholder. An
	// explicit LIMIT ? resolves on the host before planning — the plan's
	// limit node depends on its presence.
	if args == nil && q.NumParams > 0 {
		return nil, "", fmt.Errorf("wasmdb: query has %d placeholder(s); use Prepare", q.NumParams)
	}
	if args != nil {
		if len(args) != q.NumParams {
			return nil, "", fmt.Errorf("wasmdb: statement expects %d argument(s), got %d", q.NumParams, len(args))
		}
		if q.LimitParam >= 0 {
			n := args[q.LimitParam].I
			if n < 0 {
				return nil, "", fmt.Errorf("wasmdb: negative LIMIT argument %d", n)
			}
			q.Limit = n
		}
	}

	wasmBackend := o.backend != BackendVolcano && o.backend != BackendVectorized
	useCache := wasmBackend && !o.planCacheOff

	// With the plan cache on, hoist value-carrying literals into the
	// parameter vector so same-shaped queries share one compiled module.
	// Otherwise fold the placeholder arguments back into constants — the
	// baselines and cache-off runs execute the literal query, which keeps
	// them usable as differential oracles for the parameterized path.
	var params []types.Value
	if useCache {
		params = make([]types.Value, 0, q.TotalParams)
		params = append(params, args...)
		params = append(params, sema.Parameterize(q)...)
	} else if q.NumParams > 0 {
		sema.SubstituteParams(q, args)
	}

	sp = tr.Begin(obs.SpanPlan)
	p, err := plan.Build(q)
	sp.End()
	if err != nil {
		return nil, "", err
	}

	// Resolve BackendAuto into a concrete strategy. The decision runs after
	// placeholder binding (an explicit LIMIT ? is already resolved into
	// q.Limit and the plan's limit node — deciding earlier would repeat PR
	// 5's unbound-LimitSlot misclassification) and is a pure function of
	// the plan profile, the stored feedback, and the knobs, so it is
	// deterministic per (fingerprint, feedback, catalog stats). The
	// feedback key is the adaptive-tier fingerprint regardless of the tier
	// chosen: liftoff-only and adaptive decisions share one slot and one
	// cached module, so a warm hit can correct a wrong cold choice without
	// recompiling.
	backend := o.backend
	var dec autopilot.Decision
	autoKey := ""
	if o.backend == BackendAuto {
		autoKey = core.Fingerprint(q, p, db.cat.Version(), core.Style{}, engine.TierAdaptive, 0)
		var fbp *plancache.Feedback
		if fb, ok := db.pcache.Feedback(autoKey); ok {
			fbp = &fb
		}
		knobs := autopilot.DefaultKnobs()
		if n := runtime.GOMAXPROCS(0); knobs.MaxWorkers > n {
			knobs.MaxWorkers = n
		}
		dec = autopilot.Decide(autopilot.ProfilePlan(p), fbp, knobs)
		if o.parallelism > 0 {
			// An explicit WithParallelism overrides the worker half of the
			// decision; the backend half still applies.
			dec.Workers = o.parallelism
		}
		dec.Record(tr)
		if dec.Choice == autopilot.ChoiceVectorized || dec.Choice == autopilot.ChoiceVolcano {
			backend = BackendVectorized
			if dec.Choice == autopilot.ChoiceVolcano {
				backend = BackendVolcano
			}
			if useCache {
				// The fingerprint was computed on the parameterized query (a
				// stable feedback key); the interpreter executes the literal
				// one — re-derive it exactly as the param-region overflow
				// path below does.
				if q, err = sema.Analyze(stmt, db.cat); err != nil {
					return nil, "", err
				}
				if q.LimitParam >= 0 {
					q.Limit = args[q.LimitParam].I
				}
				if q.NumParams > 0 {
					sema.SubstituteParams(q, args)
				}
				if p, err = plan.Build(q); err != nil {
					return nil, "", err
				}
				params = nil
			}
		} else {
			backend = BackendWasm
			if dec.Workers > 1 {
				o.parallelism = dec.Workers
			}
		}
	}

	res := &Result{}
	for _, oc := range q.Select {
		res.Columns = append(res.Columns, oc.Name)
	}

	switch backend {
	case BackendVolcano:
		sp = tr.Begin(obs.SpanExecute)
		_, rows, err := volcano.Run(q, p)
		sp.End()
		if err != nil {
			return nil, "", err
		}
		res.rows = rows
	case BackendVectorized:
		sp = tr.Begin(obs.SpanExecute)
		_, rows, _, err := vectorized.Run(q, p)
		sp.End()
		if err != nil {
			return nil, "", err
		}
		res.rows = rows
	default:
		style := core.Style{}
		cfg := engine.Config{}
		switch backend {
		case BackendWasm:
			cfg.Tier = engine.TierAdaptive
		case BackendWasmLiftoff:
			cfg.Tier = engine.TierLiftoff
		case BackendWasmTurbofan:
			cfg.Tier = engine.TierTurbofan
		case BackendHyperLike:
			cfg.Tier = engine.TierAdaptive
			cfg.OptRounds = hyperOptRounds
			style = core.Style{LibraryHT: true, LibrarySort: true, PredicatedSelection: true}
		}
		// A liftoff-only auto decision keeps the module's adaptive identity
		// (same fingerprint, same cache entry as an adaptive decision) but
		// vetoes its background optimization; an adaptive decision — cold or
		// a later feedback-corrected warm hit on the same entry — kicks it
		// via EnsureOptimizing below.
		autoLiftoff := autoKey != "" && dec.Choice == autopilot.ChoiceLiftoff
		if autoLiftoff {
			cfg.TierPolicy = func(int, int) bool { return false }
		}
		eng := engine.New(cfg)
		var cq *core.CompiledQuery
		var mod *engine.Module
		if useCache {
			fp := core.Fingerprint(q, p, db.cat.Version(), style, cfg.Tier, cfg.OptRounds)
			ent, hit, cerr := db.pcache.GetOrCompile(fp, func() (*core.CompiledQuery, *engine.Module, error) {
				csp := tr.Begin(obs.SpanCodegen)
				c, err := core.CompileStyled(q, p, style)
				csp.End()
				if err != nil {
					return nil, nil, err
				}
				m, err := eng.CompileTraced(c.Bin, tr)
				if err != nil {
					return nil, nil, err
				}
				return c, m, nil
			})
			switch {
			case cerr == nil:
				cq, mod = ent.CQ, ent.Mod
				result, tier := "miss", "liftoff"
				if hit {
					result = "hit"
				}
				if mod.Optimized() {
					tier = "turbofan"
				}
				tr.Event(obs.EvPlanCache,
					obs.S("result", result),
					obs.S("fingerprint", fp[:12]),
					obs.S("tier", tier))
			case errors.Is(cerr, core.ErrParamRegionOverflow):
				// More literal bytes than the parameter region holds:
				// re-derive the literal query and compile it below, uncached.
				if q, err = sema.Analyze(stmt, db.cat); err != nil {
					return nil, "", err
				}
				if q.LimitParam >= 0 {
					q.Limit = args[q.LimitParam].I
				}
				if q.NumParams > 0 {
					sema.SubstituteParams(q, args)
				}
				if p, err = plan.Build(q); err != nil {
					return nil, "", err
				}
				params = nil
			default:
				return nil, "", cerr
			}
		}
		if cq == nil && mod == nil {
			sp = tr.Begin(obs.SpanCodegen)
			cq, err = core.CompileStyled(q, p, style)
			sp.End()
			if err != nil {
				return nil, "", err
			}
		}
		if mod != nil && cfg.Tier == engine.TierAdaptive && !autoLiftoff {
			// A warm hit on a module whose earlier liftoff-only compile
			// deferred tier-up starts it now; modules already optimizing (or
			// optimized) ignore the kick.
			mod.EnsureOptimizing()
		}
		out, _, err := core.Execute(cq, q, eng, core.ExecOptions{
			MorselRows:        o.morselRows,
			WaitOptimized:     o.wait,
			Ctx:               ctx,
			Fuel:              o.fuel,
			MemoryBudgetPages: o.memBudget,
			Parallelism:       o.parallelism,
			Scheduler:         o.scheduler,
			Trace:             tr,
			// A cache-managed module skips the per-query compile entirely.
			Precompiled: mod,
			Params:      params,
			// A caller-supplied trace gets the complete tier-up timeline.
			DrainBackground: o.trace != nil,
		})
		if err != nil {
			return nil, "", err
		}
		res.rows = out.Rows
	}
	obs.Default.Counter(obs.MetricQueries + "." + o.backend.String()).Add(1)
	return res, autoKey, nil
}

// analyze parses and binds a SELECT without running it. Caller holds db.mu.
func (db *DB) analyze(src string) (*sema.Query, error) {
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		return nil, err
	}
	return sema.Analyze(stmt, db.cat)
}

// Explain returns the physical plan and its pipeline dissection.
func (db *DB) Explain(src string) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		return "", err
	}
	q, err := sema.Analyze(stmt, db.cat)
	if err != nil {
		return "", err
	}
	p, err := plan.Build(q)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString(plan.Describe(p))
	sb.WriteString("\npipelines (topological order):\n")
	for i, pl := range plan.Pipelines(p) {
		fmt.Fprintf(&sb, "  %d: %s\n", i+1, pl)
	}
	return sb.String(), nil
}

// ExplainWAT returns the WebAssembly (text form) generated for a query —
// the module the engine JIT-compiles, including the ad-hoc generated
// library code (hash tables, quicksort, string matchers).
func (db *DB) ExplainWAT(src string) (string, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		return "", err
	}
	q, err := sema.Analyze(stmt, db.cat)
	if err != nil {
		return "", err
	}
	p, err := plan.Build(q)
	if err != nil {
		return "", err
	}
	cq, err := core.Compile(q, p)
	if err != nil {
		return "", err
	}
	return cq.WAT(), nil
}
