package main

import (
	"context"
	"fmt"
	"time"

	"wasmdb"
	"wasmdb/internal/catalog"
	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/plan"
	"wasmdb/internal/plancache"
	"wasmdb/internal/sql"
	"wasmdb/internal/types"
	"wasmdb/perfbench/bench"
)

// reqRes ties a driven query to the request id of its spans.
type reqRes struct {
	req int
	r   *qres
}

// probeOut is what the per-kind probes measured.
type probeOut struct {
	runs              []reqRes
	decideUs          []float64
	interp, decisions int
	regret            []float64
	autoInterp        map[string]bool
	vecMs, volMs      map[string]float64
	lnsRow, tnsRow    []float64
	speedup           []float64
	merge, groups     []float64
	fallback, parRuns int
	insertUs          []float64
}

// probe measures, for every kind of the workload on its representative
// arguments: the autopilot decision; a cold adaptive compile with its
// tier-up and then a plan-cache hit; each engine tier forced, serially; a
// warm module serially and with two workers; and, through the public API,
// the kind under auto against every manual backend.
func (w *wl) probe(cat *catalog.Catalog, ptr *tracer) (*probeOut, error) {
	pc := plancache.New(0, 0)
	d := &runner{cat: cat, pcache: pc, tr: ptr}
	out := &probeOut{autoInterp: map[string]bool{}, vecMs: map[string]float64{}, volMs: map[string]float64{}}
	drive := func(o op, m mode) (*qres, error) {
		ptr.newReq()
		r, err := w.read(d, o, m)
		if err == nil {
			out.runs = append(out.runs, reqRes{ptr.req, r})
		}
		return r, err
	}
	for _, k := range w.kinds {
		o := op{kind: k, args: w.rep[k.Name], events: bench.IsEvents(k.Name)}
		for i := 0; i < 5; i++ {
			us, interp, err := d.timeDecide(o)
			if err != nil {
				return nil, err
			}
			out.decideUs = append(out.decideUs, us)
			out.decisions++
			if interp {
				out.interp++
			}
		}
		var slow bool
		for i := 0; i < 3; i++ {
			pc.Flush()
			if _, err := drive(o, mode{backend: modeAdaptive, cache: true, waitTier: true}); err != nil {
				return nil, fmt.Errorf("probe %s cold: %w", k.Name, err)
			}
			slow = ptr.lastLayer("core.run") > 200*time.Millisecond
		}
		if _, err := drive(o, mode{backend: modeAdaptive, cache: true}); err != nil {
			return nil, fmt.Errorf("probe %s hit: %w", k.Name, err)
		}
		reps := 3
		if slow {
			reps = 1
		}
		for _, tier := range []string{modeLiftoff, modeTurbofan} {
			var ns []float64
			for i := 0; i < reps; i++ {
				r, err := drive(o, mode{backend: tier})
				if err != nil {
					return nil, fmt.Errorf("probe %s %s: %w", k.Name, tier, err)
				}
				ns = append(ns, float64(ptr.lastLayer("core.run").Nanoseconds())/float64(max(r.inputRows, 1)))
			}
			if tier == modeLiftoff {
				out.lnsRow = append(out.lnsRow, bench.Median(ns))
			} else {
				out.tnsRow = append(out.tnsRow, bench.Median(ns))
			}
		}
		if _, err := drive(o, mode{backend: modeAdaptive, cache: true, waitOpt: true}); err != nil {
			return nil, err
		}
		var runMs [3][]float64
		for _, workers := range []int{1, 2} {
			for i := 0; i < reps; i++ {
				r, err := drive(o, mode{backend: modeAdaptive, cache: true, workers: workers})
				if err != nil {
					return nil, fmt.Errorf("probe %s %d workers: %w", k.Name, workers, err)
				}
				runMs[workers] = append(runMs[workers], ptr.lastLayer("core.run").Seconds()*1000)
				if workers == 2 {
					out.parRuns++
					if r.stats.SerialFallback != "" {
						out.fallback++
					}
					out.merge = append(out.merge, ptr.lastLayer("core.merge").Seconds()*1000)
					out.groups = append(out.groups, float64(r.stats.GroupsMerged))
				}
			}
		}
		out.speedup = append(out.speedup, bench.Median(runMs[1])/bench.Median(runMs[2]))
		if err := w.regret(out, o); err != nil {
			return nil, err
		}
	}
	if !w.wire {
		// No workload write reaches storage here: time INSERT batches
		// into the otherwise unused events table instead.
		gen := bench.NewEventGen(w.seed)
		for i := 0; i < 20; i++ {
			ptr.newReq()
			rows := gen.Next(bench.EventBatch)
			if err := (&runner{cat: cat, tr: ptr}).insertEvents(rows); err != nil {
				return nil, err
			}
			out.insertUs = append(out.insertUs, float64(ptr.lastLayer("storage.insert").Nanoseconds())/1e3)
		}
	}
	return out, nil
}

func (d *runner) insertEvents(rows []bench.Event) error {
	conv := make([][]types.Value, len(rows))
	for i, e := range rows {
		conv[i] = eventRow(e)
	}
	return d.insert(bench.InsertSQL(rows), conv)
}

// lastLayer sums the foreground spans called name of the latest request.
func (t *tracer) lastLayer(name string) time.Duration {
	var sum time.Duration
	for i := len(t.spans) - 1; i > 0 && t.spans[i].Req == t.req; i-- {
		if s := t.spans[i]; s.Name == name && !s.Background {
			sum += time.Duration(s.End - s.Start)
		}
	}
	return sum
}

// timeDecide times the autopilot's part of the auto path — the adaptive
// fingerprint, the feedback lookup, the plan profile and the decision — on
// an already analyzed and planned query.
func (d *runner) timeDecide(o op) (us float64, interp bool, err error) {
	stmt, err := sql.ParseSelect(o.kind.SQL)
	if err != nil {
		return 0, false, err
	}
	q, _, err := d.analyze(stmt, o.args, true)
	if err != nil {
		return 0, false, err
	}
	p, err := plan.Build(q)
	if err != nil {
		return 0, false, err
	}
	t0 := time.Now()
	key := core.Fingerprint(q, p, d.cat.Version(), core.Style{}, engine.TierAdaptive, 0)
	dec := decide(d.pcache, key, p)
	us = float64(time.Since(t0).Nanoseconds()) / 1e3
	return us, dec.Choice.String() == "vectorized" || dec.Choice.String() == "volcano", nil
}

// regret runs the kind through the public API under auto and under every
// manual backend, serially, and records auto's latency over the best
// manual one; the interpreters' execute times are kept as well.
func (w *wl) regret(out *probeOut, o op) error {
	backends := []wasmdb.Backend{wasmdb.BackendAuto, wasmdb.BackendWasm, wasmdb.BackendWasmLiftoff,
		wasmdb.BackendWasmTurbofan, wasmdb.BackendHyperLike, wasmdb.BackendVectorized, wasmdb.BackendVolcano}
	best, auto := 0.0, 0.0
	for _, b := range backends {
		lat := 0.0
		for i := 0; i < 2; i++ { // a warm-up, then the timed run
			r, d, err := w.publicQuery(o, wasmdb.WithBackend(b))
			ms := d.Seconds() * 1000
			if err != nil {
				return fmt.Errorf("regret %s on %s: %w", o.kind.Name, b, err)
			}
			if i == 0 { // warm-up
				continue
			}
			lat = ms
			switch b {
			case wasmdb.BackendAuto:
				if r.Stats.Auto == "vectorized" || r.Stats.Auto == "volcano" {
					out.autoInterp[o.kind.Name] = true
				}
			case wasmdb.BackendVectorized:
				out.vecMs[o.kind.Name] = r.Stats.Execute.Seconds() * 1000
			case wasmdb.BackendVolcano:
				out.volMs[o.kind.Name] = r.Stats.Execute.Seconds() * 1000
			}
		}
		if b == wasmdb.BackendAuto {
			auto = lat
		} else if best == 0 || lat < best {
			best = lat
		}
	}
	out.regret = append(out.regret, auto/best)
	return nil
}

// publicQuery runs one read through the public API with opts and returns
// its latency; the result is checked after the clock stops.
func (w *wl) publicQuery(o op, opts ...wasmdb.Option) (*wasmdb.Result, time.Duration, error) {
	var r *wasmdb.Result
	var err error
	t0 := time.Now()
	if st := w.stmts[o.kind.Name]; st != nil {
		r, err = st.QueryContext(context.Background(), o.args, opts...)
	} else {
		r, err = w.db.Query(o.kind.SQL, opts...)
	}
	d := time.Since(t0)
	if err != nil {
		return nil, d, err
	}
	var got bench.Answer
	if w.wire {
		if got, err = bench.WireAnswer(r, o.kind.Ordered); err != nil {
			return nil, d, err
		}
	} else {
		got = bench.ResultAnswer(r, o.kind.Ordered)
	}
	return r, d, w.check(o, got, w.model)
}
