// Command traced is the benchmark's traced run: it replays a workload's
// operations by calling each layer's public functions (sql, sema, plan,
// autopilot, plancache, core, engine, the interpreters, storage) from this
// file set, with a span around every call, and reports per-layer metrics.
// It is kept apart from the gated end-to-end command so that changes to
// internal APIs can break only this run. Run it through run.sh with
// --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"wasmdb"
	"wasmdb/internal/catalog"
	"wasmdb/internal/plancache"
	"wasmdb/internal/sql"
	"wasmdb/internal/tpch"
	"wasmdb/internal/types"
	"wasmdb/perfbench/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench traced:", err)
		os.Exit(2)
	}
}

// op is one operation of a workload: a read of a kind with its arguments,
// or an INSERT batch.
type op struct {
	kind   bench.Kind
	args   []any
	write  []bench.Event
	sql    string
	events bool
}

// wl is a set-up workload as the traced run sees it.
type wl struct {
	name  string
	scale float64
	seed  int64
	db    *wasmdb.DB
	// oracle holds reference answers; wire workloads render cells as the
	// service's JSON, the others as Result.Row.
	oracle bench.Oracle
	wire   bool
	// model is the events rows the public database holds; imodel those of
	// the internal catalog.
	model, imodel []bench.Event
	kinds         []bench.Kind
	rep           map[string][]any // representative arguments per kind
	mode          mode             // replay mode
	cold          bool
	pubOpts       []wasmdb.Option
	stmts         map[string]*wasmdb.Stmt
}

func run() error {
	workload := flag.String("workload", "", "workload to trace")
	seed := flag.Int64("seed", 1, "seed of the query order, binds, arrival schedule and inserted rows")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 1, "must be 1")
	flag.Parse()
	if *trace != 1 || *seconds <= 0 {
		return fmt.Errorf("the traced command runs with --trace 1 and positive --seconds")
	}
	rec := bench.NewRecord(*workload, *seed, *seconds, true)
	window := time.Duration(*seconds * float64(time.Second))
	w := &wl{name: *workload, seed: *seed, rep: map[string][]any{}, stmts: map[string]*wasmdb.Stmt{}}
	var senv *bench.ServiceEnv
	var ops []op
	var closed *bench.Env
	switch {
	case bench.ClosedLoop[*workload] != nil:
		spec := bench.ClosedLoop[*workload]
		env, err := bench.SetupClosed(spec, *seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		closed = env
		w.scale, w.db, w.oracle, w.kinds, w.cold = spec.Scale, env.DB, env.Oracle, spec.Kinds, spec.Cold
		w.mode = mode{backend: modeAdaptive, workers: spec.Parallelism, cache: true, waitTier: spec.Cold}
		w.pubOpts = spec.Options()
		for _, k := range spec.Kinds {
			w.rep[k.Name] = nil
		}
		for _, i := range env.Order {
			ops = append(ops, op{kind: spec.Kinds[i]})
		}
		rec.Scale, rec.Workers = spec.Scale, spec.Parallelism
	case *workload == bench.Service.Name:
		spec := bench.Service
		env, err := bench.SetupService(spec, *seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		senv = env
		defer senv.Close()
		w.scale, w.db, w.oracle, w.wire = spec.Scale, env.DB, env.Oracle, true
		w.mode = mode{backend: modeAuto, cache: true}
		w.pubOpts = []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendAuto)}
		for _, rk := range spec.Reads {
			w.kinds = append(w.kinds, rk.Kind)
			w.rep[rk.Name] = env.Pools[rk.Name][0]
			st, err := env.DB.Prepare(rk.SQL)
			if err != nil {
				return err
			}
			w.stmts[rk.Name] = st
		}
		rec.Scale, rec.Conns, rec.RateRPS = spec.Scale, bench.Conns(), spec.Rate
	default:
		return fmt.Errorf("unknown workload %q", *workload)
	}

	cat, err := tpch.Generate(w.scale, bench.TPCHSeed)
	if err != nil {
		return err
	}
	if err := createEvents(cat); err != nil {
		return err
	}
	m := metrics{}
	self := map[string]bench.Metric{}

	// 1. The query service: the measured open loop itself for service-mix,
	// a light open loop of the workload's reads for the others.
	var pub []time.Duration
	if senv != nil {
		w.model = append(w.model, senv.Initial...)
		w.imodel = append(w.imodel, senv.Initial...)
		if err := appendEvents(cat, senv.Initial); err != nil {
			return err
		}
		r := senv.Run(*seed, window)
		if err := serverMetrics(m, senv, r); err != nil {
			return err
		}
		senv.Close()
		for i, o := range r.Ops {
			if o.Read == nil && r.Outcomes[i].Err == nil {
				w.model = append(w.model, o.Write...)
			}
		}
		for _, o := range senv.Ops(*seed+100, 400) {
			x := op{write: o.Write, sql: o.SQL}
			if o.Read != nil {
				x = op{kind: o.Read.Kind, args: o.Args, events: bench.IsEvents(o.Read.Name)}
			}
			ops = append(ops, x)
		}
		if pub, err = w.publicPass(ops); err != nil {
			return err
		}
	} else {
		n := 0
		deadline := time.Now().Add(window / 2)
		for ; n < len(ops) && (n < 2 || time.Now().Before(deadline)); n++ {
			d, err := w.publicOne(ops[n])
			if err != nil {
				return err
			}
			pub = append(pub, d)
		}
		ops = ops[:n]
		if err := w.serviceProbe(m, closed, bench.Median(msOf(pub))); err != nil {
			return err
		}
	}

	// 2. The traced replay of the same operations.
	rtr := newTracer()
	d := &runner{cat: cat, pcache: plancache.New(0, 0), tr: newTracer()}
	if err := w.warm(d); err != nil {
		return err
	}
	d.tr = rtr
	var res []*qres
	for _, o := range ops {
		if w.cold {
			d.pcache.Flush()
		}
		rtr.newReq()
		r, err := w.replayOne(d, o)
		if err != nil {
			return fmt.Errorf("replay %s: %w", o.kind.Name, err)
		}
		res = append(res, r)
	}

	// 3. Per-kind probes of the layers the replay does not reach.
	ptr := newTracer()
	pr, err := w.probe(cat, ptr)
	if err != nil {
		return err
	}
	replayMetrics(m, rtr, ptr, res, pr)
	m.set("trace.overhead_frac", overhead(rtr, pub))

	for name, t := range rtr.selfTimes() {
		self["self."+name+"_ms"] = bench.Metric{Value: t.Seconds() * 1000 / float64(rtr.req), Unit: "ms/op"}
	}
	out := bench.Result{Correct: true, Attempted: len(ops), Metrics: map[string]bench.Metric{}}
	for _, pl := range perLayer {
		v, ok := m[pl.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", pl.name)
		}
		out.Metrics[pl.name] = bench.Metric{Value: v, Unit: pl.unit}
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	if err := rtr.write(path, map[string]any{"run": rec, "probe_spans": ptr.spans[1:]}); err != nil {
		return err
	}
	return bench.Print(os.Stdout, rec, self, out)
}

// metrics collects per-layer values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

// perLayer lists the traced run's metrics in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"sql.parse_us", "us"}, {"sema.analyze_us", "us"}, {"plan.build_us", "us"},
	{"plan.est_error", "ratio"},
	{"autopilot.decide_us", "us"}, {"autopilot.interpret_frac", "ratio"}, {"autopilot.regret", "ratio"},
	{"core.codegen_us", "us"}, {"core.module_bytes", "count"},
	{"wasm.decode_us", "us"}, {"wasm.validate_us", "us"}, {"engine.liftoff_compile_us", "us"},
	{"engine.turbofan_compile_us", "us"}, {"engine.tierup_ms", "ms"}, {"engine.liftoff_morsel_frac", "ratio"},
	{"engine.liftoff_ns_per_row", "ns/row"}, {"engine.turbofan_ns_per_row", "ns/row"},
	{"core.rewire_us", "us"}, {"core.init_us", "us"}, {"core.run_ms", "ms"},
	{"core.parallel_speedup", "ratio"}, {"core.serial_fallback_frac", "ratio"},
	{"core.merge_ms", "ms"}, {"core.groups_merged", "count"}, {"core.peak_mem_mb", "MB"},
	{"plancache.hit_ratio", "ratio"}, {"plancache.hit_us", "us"},
	{"vectorized.run_ms", "ms"}, {"volcano.run_ms", "ms"},
	{"storage.insert_us", "us"},
	{"server.admission_us", "us"}, {"server.rejected_frac", "ratio"}, {"server.overhead_us", "us"},
	{"loadgen.late_ms", "ms"}, {"trace.unaccounted_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds() * 1000
	}
	return out
}

// createEvents adds the events table to the internal catalog the way the
// public path executes its DDL.
func createEvents(cat *catalog.Catalog) error {
	st, err := sql.Parse(bench.EventsDDL)
	if err != nil {
		return err
	}
	ct := st.(*sql.CreateTableStmt)
	var defs []catalog.ColumnDef
	for _, c := range ct.Columns {
		defs = append(defs, catalog.ColumnDef{Name: c.Name, Type: c.Type})
	}
	_, err = cat.Create(ct.Name, defs)
	return err
}

func eventRow(e bench.Event) []types.Value {
	return []types.Value{types.NewInt64(e.ID), types.NewInt32(e.User), types.NewInt32(e.Kind), types.NewInt64(e.Amount)}
}

func appendEvents(cat *catalog.Catalog, rows []bench.Event) error {
	t, err := cat.Table("events")
	if err != nil {
		return err
	}
	for _, e := range rows {
		if err := t.AppendRow(eventRow(e)...); err != nil {
			return err
		}
	}
	return nil
}

// publicOne runs one read through the public API with the workload's
// options, checked, and returns its latency.
func (w *wl) publicOne(o op) (time.Duration, error) {
	if w.cold {
		w.db.FlushPlanCache()
	}
	_, d, err := w.publicQuery(o, w.pubOpts...)
	return d, err
}

// publicPass runs ops through the public API; writes go through DB.Exec.
func (w *wl) publicPass(ops []op) ([]time.Duration, error) {
	var out []time.Duration
	for _, o := range ops {
		if o.write != nil {
			if err := w.db.Exec(o.sql); err != nil {
				return nil, err
			}
			w.model = append(w.model, o.write...)
			continue
		}
		d, err := w.publicOne(o)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

func (w *wl) check(o op, got bench.Answer, model []bench.Event) error {
	if o.events {
		want, err := bench.EventsAnswer(o.kind.Name, o.args, model)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("wrong result for %s", bench.RefKey(o.kind.Name, o.args))
		}
		return nil
	}
	return w.oracle.Check(bench.RefKey(o.kind.Name, o.args), got)
}

// answer renders internal rows the way the workload's oracle does.
func (w *wl) answer(rows [][]types.Value, ordered bool) (bench.Answer, error) {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = make([]string, len(r))
		for c, v := range r {
			if !w.wire {
				out[i][c] = v.String()
				continue
			}
			b, err := json.Marshal(wireValue(v))
			if err != nil {
				return bench.Answer{}, err
			}
			out[i][c] = string(b)
		}
	}
	return bench.NewAnswer(out, ordered), nil
}

// wireValue is the Go value the public Result.Value gives for v, which the
// service encodes as JSON.
func wireValue(v types.Value) any {
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
	}
	return v.I
}

// warm brings the internal path to the state the public one starts the
// measured loop in: the warm workloads' modules compiled and optimized,
// the service's reads run as often as its warm-up runs them.
func (w *wl) warm(d *runner) error {
	for _, k := range w.kinds {
		m := w.mode
		reps := 1
		if w.wire {
			reps = 2 * 4 // every session runs four binds of each read
		} else if w.cold {
			d.pcache.Flush()
		} else {
			m.waitOpt = true
		}
		for i := 0; i < reps; i++ {
			if _, err := w.read(d, op{kind: k, args: w.rep[k.Name], events: bench.IsEvents(k.Name)}, m); err != nil {
				return fmt.Errorf("warm-up %s: %w", k.Name, err)
			}
		}
	}
	return nil
}

// replayOne runs one operation through the runner, checked.
func (w *wl) replayOne(d *runner, o op) (*qres, error) {
	if o.write != nil {
		rows := make([][]types.Value, len(o.write))
		for i, e := range o.write {
			rows[i] = eventRow(e)
		}
		if err := d.insert(o.sql, rows); err != nil {
			return nil, err
		}
		w.imodel = append(w.imodel, o.write...)
		return nil, nil
	}
	return w.read(d, o, w.mode)
}

func (w *wl) read(d *runner, o op, m mode) (*qres, error) {
	r, err := d.query(o.kind.SQL, o.args, m)
	if err != nil {
		return nil, err
	}
	got, err := w.answer(r.rows, o.kind.Ordered)
	if err != nil {
		return nil, err
	}
	return r, w.check(o, got, w.imodel)
}

// serverMetrics reads the service's own accounting from the open loop's
// responses: admission wait, refusals, and the client latency the server
// does not account for.
func serverMetrics(m metrics, env *bench.ServiceEnv, r *bench.ServiceRun) error {
	samples := env.Samples(r)
	var adm, over []float64
	refused := 0
	for i, o := range r.Outcomes {
		if samples[i].Wrong {
			return fmt.Errorf("service: %s", samples[i].Err)
		}
		if samples[i].Failed {
			refused++
			continue
		}
		if r.Ops[i].Read == nil {
			continue
		}
		adm = append(adm, float64(o.AdmissionNs)/1e3)
		over = append(over, float64(o.Done.Sub(o.Sent).Nanoseconds()-o.AdmissionNs-o.ExecNs-o.TranslateNs)/1e3)
	}
	m.set("server.admission_us", bench.Median(adm))
	m.set("server.overhead_us", bench.Median(over))
	m.set("server.rejected_frac", float64(refused)/float64(max(len(samples), 1)))
	m.set("loadgen.late_ms", bench.Percentile(msOf(r.Late), 99))
	return nil
}

// serviceProbe serves a closed-loop workload's reads through the query
// service at about half of one connection's capacity, so the service
// layers are measured on every workload.
func (w *wl) serviceProbe(m metrics, env *bench.Env, medianMs float64) error {
	spec := &bench.ServiceSpec{Name: w.name + "-service", PoolSize: 1}
	if env.Spec.Parallelism > 0 {
		spec.Settings = [][2]string{{"parallelism", fmt.Sprint(env.Spec.Parallelism)}}
	}
	oracle, pools := bench.Oracle{}, map[string][][]any{}
	for _, k := range w.kinds {
		spec.Reads = append(spec.Reads, bench.ReadKind{Kind: k, Weight: 1})
		pools[k.Name] = [][]any{nil}
		ref, err := w.db.Query(k.SQL, wasmdb.WithBackend(wasmdb.BackendVolcano))
		if err != nil {
			return err
		}
		if oracle[bench.RefKey(k.Name, nil)], err = bench.WireAnswer(ref, k.Ordered); err != nil {
			return err
		}
	}
	spec.Rate = 500 / math.Max(medianMs, 1)
	d := time.Duration(20 / spec.Rate * float64(time.Second))
	d = min(max(d, 2*time.Second), 20*time.Second)
	senv, err := bench.StartService(spec, w.db, oracle, pools)
	if err != nil {
		return err
	}
	r := senv.Run(w.seed, d)
	senv.Close()
	return serverMetrics(m, senv, r)
}

// overhead compares the traced replay's median read time with the
// untraced public pass's median latency over the same operations.
func overhead(rtr *tracer, pub []time.Duration) float64 {
	var reads []float64
	for _, s := range rtr.spans[1:] {
		if s.Name == "op" && !hasChild(rtr, s.ID, "storage.insert") {
			reads = append(reads, float64(s.End-s.Start)/1e6)
		}
	}
	base := bench.Median(msOf(pub))
	if base == 0 {
		return 0
	}
	return bench.Median(reads)/base - 1
}

// hasChild reports whether span id has a direct child called name; an
// operation's spans are contiguous in the trace.
func hasChild(t *tracer, id int, name string) bool {
	for _, s := range t.spans[id+1:] {
		if s.Req != t.spans[id].Req {
			return false
		}
		if s.Parent == id && s.Name == name {
			return true
		}
	}
	return false
}
