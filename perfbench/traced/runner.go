package main

import (
	"fmt"
	"runtime"
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
	"wasmdb/internal/types"
	"wasmdb/internal/vectorized"
	"wasmdb/internal/volcano"
)

// Backends the runner runs a query on.
const (
	modeAdaptive   = "adaptive"
	modeLiftoff    = "liftoff"
	modeTurbofan   = "turbofan"
	modeAuto       = "auto"
	modeVectorized = "vectorized"
	modeVolcano    = "volcano"
)

// mode is how one query runs.
type mode struct {
	backend  string
	workers  int  // worker request (<= 1 serial)
	cache    bool // through the plan cache
	waitOpt  bool // wait for the optimizing tier before the first morsel
	waitTier bool // after the query, wait for its background tier-up
}

// runner runs queries by calling each layer's public functions in the
// order the public query path does, with a span around every call. Time
// inside core.Execute and engine compilation is split by the spans the
// program already records on its query trace.
type runner struct {
	cat    *catalog.Catalog
	pcache *plancache.Cache
	tr     *tracer
}

// qres is what one driven query produced besides its spans.
type qres struct {
	rows     [][]types.Value
	stats    *core.ExecStats
	looked   bool // a plan-cache lookup happened
	hit      bool
	compiled bool // engine compile ran for this query
	modBytes int
	decision *autopilot.Decision
	interp   string // interpreter that ran, if any
	estRows  float64
	// tierUp runs from the adaptive compile's return to WaitOptimized's
	// return; negative when the query compiled no adaptive module or
	// mode.waitTier was off.
	tierUp    time.Duration
	inputRows int
	par       bool // more than one worker was requested
}

// query runs one SELECT under an "op" span. With m.waitTier it then waits,
// outside the span, for the tier-up the query started.
func (d *runner) query(src string, args []any, m mode) (*qres, error) {
	root := d.tr.start("op", 0)
	r := &qres{tierUp: -1}
	var tierDone chan time.Time
	var compiledAt time.Time
	err := d.run(root, r, src, args, m, &tierDone, &compiledAt)
	d.tr.stop(root)
	if tierDone != nil {
		r.tierUp = (<-tierDone).Sub(compiledAt)
	}
	return r, err
}

func (d *runner) run(root int, r *qres, src string, args []any, m mode, tierDone *chan time.Time, compiledAt *time.Time) error {
	tr := d.tr

	s := tr.start("sql.parse", root)
	stmt, err := sql.ParseSelect(src)
	tr.stop(s)
	if err != nil {
		return err
	}
	wasmBackend := m.backend != modeVolcano && m.backend != modeVectorized
	useCache := wasmBackend && m.cache
	s = tr.start("sema.analyze", root)
	q, params, err := d.analyze(stmt, args, useCache)
	tr.stop(s)
	if err != nil {
		return err
	}
	s = tr.start("plan.build", root)
	p, err := plan.Build(q)
	tr.stop(s)
	if err != nil {
		return err
	}

	backend, workers := m.backend, m.workers
	autoKey, autoLiftoff := "", false
	if m.backend == modeAuto {
		s = tr.start("autopilot.decide", root)
		autoKey = core.Fingerprint(q, p, d.cat.Version(), core.Style{}, engine.TierAdaptive, 0)
		dec := decide(d.pcache, autoKey, p)
		if m.workers > 0 {
			dec.Workers = m.workers
		}
		tr.stop(s)
		r.decision = &dec
		switch dec.Choice {
		case autopilot.ChoiceVolcano, autopilot.ChoiceVectorized:
			backend = modeVectorized
			if dec.Choice == autopilot.ChoiceVolcano {
				backend = modeVolcano
			}
			if useCache {
				// The interpreters run the literal query.
				s = tr.start("sema.analyze", root)
				q, _, err = d.analyze(stmt, args, false)
				tr.stop(s)
				if err != nil {
					return err
				}
				s = tr.start("plan.build", root)
				p, err = plan.Build(q)
				tr.stop(s)
				if err != nil {
					return err
				}
				params = nil
			}
		default:
			backend = modeAdaptive
			autoLiftoff = dec.Choice == autopilot.ChoiceLiftoff
			if dec.Workers > 1 {
				workers = dec.Workers
			}
		}
	}
	r.estRows = p.Rows()
	for _, t := range q.Tables {
		r.inputRows += t.Table.Rows()
	}

	switch backend {
	case modeVolcano, modeVectorized:
		r.interp = backend
		s = tr.start(backend+".run", root)
		if backend == modeVolcano {
			_, r.rows, err = volcano.Run(q, p)
		} else {
			_, r.rows, _, err = vectorized.Run(q, p)
		}
		tr.stop(s)
		return err
	}

	cfg := engine.Config{Tier: engine.TierAdaptive}
	switch backend {
	case modeLiftoff:
		cfg.Tier = engine.TierLiftoff
	case modeTurbofan:
		cfg.Tier = engine.TierTurbofan
	}
	if autoLiftoff {
		cfg.TierPolicy = func(int, int) bool { return false }
	}
	eng := engine.New(cfg)
	otr := obs.NewTrace()
	var cq *core.CompiledQuery
	var mod *engine.Module
	compile := func(parent int) (*core.CompiledQuery, *engine.Module, error) {
		s := tr.start("core.codegen", parent)
		c, err := core.CompileStyled(q, p, core.Style{})
		tr.stop(s)
		if err != nil {
			return nil, nil, err
		}
		s = tr.start("engine.compile", parent)
		mark := len(otr.Spans())
		m, err := eng.CompileTraced(c.Bin, otr)
		*compiledAt = time.Now()
		tr.stop(s)
		d.importSpans(otr.Spans()[mark:], s, map[string]string{
			obs.SpanDecode: "wasm.decode", obs.SpanValidate: "wasm.validate",
			obs.SpanLiftoff: "engine.liftoff_compile", obs.SpanTurbofan: "engine.turbofan_compile",
		})
		r.compiled, r.modBytes = err == nil, len(c.Bin)
		return c, m, err
	}
	if useCache {
		s = tr.start("plancache.lookup", root)
		fp := core.Fingerprint(q, p, d.cat.Version(), core.Style{}, cfg.Tier, cfg.OptRounds)
		ent, hit, err := d.pcache.GetOrCompile(fp, func() (*core.CompiledQuery, *engine.Module, error) { return compile(s) })
		tr.stop(s)
		if err != nil {
			return fmt.Errorf("plan cache: %w", err)
		}
		cq, mod, r.looked, r.hit = ent.CQ, ent.Mod, true, hit
	} else if cq, mod, err = compile(root); err != nil {
		return err
	}
	if cfg.Tier == engine.TierAdaptive && !autoLiftoff {
		mod.EnsureOptimizing()
	}
	if m.waitTier && r.compiled && cfg.Tier == engine.TierAdaptive && !autoLiftoff {
		done := make(chan time.Time, 1)
		go func() {
			_ = mod.WaitOptimized() // a failed tier-up leaves baseline code; the time still counts
			done <- time.Now()
		}()
		*tierDone = done
	}

	r.par = workers > 1
	s = tr.start("core.execute", root)
	mark := len(otr.Spans())
	out, st, err := core.Execute(cq, q, eng, core.ExecOptions{
		WaitOptimized: m.waitOpt,
		Parallelism:   workers,
		Trace:         otr,
		Precompiled:   mod,
		Params:        params,
	})
	tr.stop(s)
	if err != nil {
		return err
	}
	d.importSpans(otr.Spans()[mark:], s, map[string]string{
		obs.SpanRewire: "core.rewire", obs.SpanInstantiate: "core.init",
		obs.SpanExecute: "core.run", obs.SpanMerge: "core.merge",
	})
	r.rows, r.stats = out.Rows, st
	if autoKey != "" {
		recordFeedback(d.pcache, autoKey, r, otr)
	}
	return nil
}

// analyze binds the statement and its arguments; with the plan cache on it
// hoists literals into the parameter vector, otherwise it folds the
// arguments back into constants.
func (d *runner) analyze(stmt *sql.SelectStmt, args []any, useCache bool) (*sema.Query, []types.Value, error) {
	q, err := sema.Analyze(stmt, d.cat)
	if err != nil {
		return nil, nil, err
	}
	if len(args) != q.NumParams {
		return nil, nil, fmt.Errorf("statement expects %d argument(s), got %d", q.NumParams, len(args))
	}
	vals := make([]types.Value, len(args))
	for i, a := range args {
		if vals[i], err = bind(a, q.ParamTypes[i]); err != nil {
			return nil, nil, err
		}
	}
	if q.LimitParam >= 0 {
		q.Limit = vals[q.LimitParam].I
	}
	var params []types.Value
	if useCache {
		params = append(append(make([]types.Value, 0, q.TotalParams), vals...), sema.Parameterize(q)...)
	} else if q.NumParams > 0 {
		sema.SubstituteParams(q, vals)
	}
	return q, params, nil
}

// importSpans re-records the program's own trace spans named in names as
// children of parent; a merge barrier nests under the pipeline-run span
// that contains it.
func (d *runner) importSpans(spans []obs.Span, parent int, names map[string]string) {
	run := -1
	var runStart, runEnd time.Time
	for _, sp := range spans {
		name, ok := names[sp.Name]
		if !ok {
			continue
		}
		p := parent
		if sp.Name == obs.SpanMerge && run >= 0 && !sp.Start.Before(runStart) && !sp.Start.After(runEnd) {
			p = run
		}
		id := d.tr.add(name, p, sp.Start, sp.Dur, false)
		if sp.Name == obs.SpanExecute {
			run, runStart, runEnd = id, sp.Start, sp.Start.Add(sp.Dur)
		}
	}
}

// decide is the autopilot call of the public query path: the plan profile
// and the stored feedback for the shape go in, the decision comes out.
func decide(pc *plancache.Cache, key string, p plan.Node) autopilot.Decision {
	var fbp *plancache.Feedback
	if fb, ok := pc.Feedback(key); ok {
		fbp = &fb
	}
	knobs := autopilot.DefaultKnobs()
	if n := runtime.GOMAXPROCS(0); knobs.MaxWorkers > n {
		knobs.MaxWorkers = n
	}
	return autopilot.Decide(autopilot.ProfilePlan(p), fbp, knobs)
}

// recordFeedback stores what the execution did under the shape's
// fingerprint, as the public query path does after every auto query.
func recordFeedback(pc *plancache.Cache, key string, r *qres, otr *obs.Trace) {
	st := r.stats
	fb := plancache.Feedback{
		Rows:           int64(len(r.rows)),
		ExecNs:         otr.Dur(obs.SpanExecute).Nanoseconds(),
		Morsels:        int64(st.MorselsLiftoff + st.MorselsTurbofan),
		TierUpMorsel:   -1,
		Workers:        st.Workers,
		SerialFallback: st.SerialFallback,
		Choice:         r.decision.Choice.String(),
	}
	fb.FallbackIntrinsic = core.FallbackIntrinsic(fb.SerialFallback)
	if fb.Morsels > 0 {
		fb.MorselNs = fb.ExecNs / fb.Morsels
	}
	for _, ev := range otr.Events() {
		if ev.Name == obs.EvTierSwitch && fb.TierUpMorsel < 0 {
			for _, a := range ev.Args {
				if a.Key == "morsel" {
					fb.TierUpMorsel = a.Val
				}
			}
		}
	}
	pc.RecordFeedback(key, fb)
}

// bind converts a benchmark argument to a typed value for a placeholder.
func bind(a any, t types.Type) (types.Value, error) {
	switch v := a.(type) {
	case int:
		switch t.Kind {
		case types.Int32:
			return types.NewInt32(int32(v)), nil
		case types.Int64:
			return types.NewInt64(int64(v)), nil
		}
	case string:
		if t.Kind == types.Date {
			days, err := types.ParseDate(v)
			return types.NewDate(days), err
		}
	}
	return types.Value{}, fmt.Errorf("cannot bind %T to %s", a, t)
}

// insert appends an INSERT batch the way the public path does: parse, then
// append each row to the table.
func (d *runner) insert(src string, rows [][]types.Value) error {
	root := d.tr.start("op", 0)
	defer d.tr.stop(root)
	s := d.tr.start("sql.parse", root)
	st, err := sql.Parse(src)
	d.tr.stop(s)
	if err != nil {
		return err
	}
	ins, ok := st.(*sql.InsertStmt)
	if !ok {
		return fmt.Errorf("not an INSERT: %q", src)
	}
	tbl, err := d.cat.Table(ins.Table)
	if err != nil {
		return err
	}
	s = d.tr.start("storage.insert", root)
	defer d.tr.stop(s)
	for _, r := range rows {
		if err := tbl.AppendRow(r...); err != nil {
			return err
		}
	}
	return nil
}
