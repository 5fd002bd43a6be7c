package experiments

import (
	"fmt"
	"runtime"

	"wasmdb"
)

// Auto measures the autopilot crossover (BENCH_auto.json): for a small
// workload (a tiny supplier aggregation) and a large one (TPC-H Q1), it runs
// every manual backend plus backend-auto cold (plan cache flushed before
// each rep) and warm, and asserts the crossover the cost model exists for —
// auto lands within 10% of the best interpreter on the small workload and
// within 10% of the best compiled configuration on the large one (execution
// time, min-of-reps). A third workload deliberately breaks the planner's
// estimate (stacked always-true conjuncts) and asserts that the warm
// decision, corrected by stored execution feedback, differs from the cold
// one.
func Auto(o Options) ([]Record, error) {
	o.norm()
	reps := o.Reps
	if reps < 5 {
		// Sub-millisecond execution times need a few reps for a stable min.
		reps = 5
	}
	db := wasmdb.Open()
	if err := db.LoadTPCH(o.SF, 42); err != nil {
		return nil, err
	}

	q1, _ := wasmdb.TPCHQuery("Q1")
	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	manual := []struct {
		name     string
		compiled bool
		opts     []wasmdb.Option
	}{
		{"volcano", false, []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendVolcano)}},
		{"vectorized", false, []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendVectorized)}},
		{"liftoff", true, []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendWasmLiftoff)}},
		{"adaptive", true, []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendWasm)}},
		{"parallel", true, []wasmdb.Option{wasmdb.WithBackend(wasmdb.BackendWasm), wasmdb.WithParallelism(workers)}},
	}

	// minExec runs sql reps times (after one untimed warm-up) and returns the
	// stats of the rep with the lowest execution time.
	minExec := func(sql string, opts ...wasmdb.Option) (wasmdb.Stats, error) {
		if _, err := db.Query(sql, opts...); err != nil {
			return wasmdb.Stats{}, err
		}
		var best wasmdb.Stats
		for i := 0; i < reps; i++ {
			res, err := db.Query(sql, opts...)
			if err != nil {
				return wasmdb.Stats{}, err
			}
			if i == 0 || res.Stats.Execute < best.Execute {
				best = res.Stats
			}
		}
		return best, nil
	}
	var recs []Record
	for _, w := range []struct {
		name, sql   string
		wantChoice  string
		wantAgainst bool // compare against compiled configs (else interpreters)
	}{
		{"small", "SELECT COUNT(*), SUM(s_acctbal) FROM supplier", "volcano", false},
		{"large", q1, "adaptive", true},
	} {
		bestClass := int64(0)
		for _, m := range manual {
			st, err := minExec(w.sql, m.opts...)
			if err != nil {
				return nil, fmt.Errorf("auto:%s on %s: %w", w.name, m.name, err)
			}
			recs = append(recs, newRecord("auto:"+w.name+":"+m.name, m.name, 0, st.QueryProfile))
			if m.compiled == w.wantAgainst {
				if e := st.Execute.Nanoseconds(); bestClass == 0 || e < bestClass {
					bestClass = e
				}
			}
		}

		// Cold: every rep re-decides from estimates alone.
		db.FlushPlanCache()
		coldRes, err := db.Query(w.sql, wasmdb.WithAutoTuning())
		if err != nil {
			return nil, fmt.Errorf("auto:%s cold: %w", w.name, err)
		}
		cold := coldRes.Stats
		for i := 1; i < reps; i++ {
			db.FlushPlanCache()
			res, err := db.Query(w.sql, wasmdb.WithAutoTuning())
			if err != nil {
				return nil, fmt.Errorf("auto:%s cold: %w", w.name, err)
			}
			if res.Stats.Execute < cold.Execute {
				cold = res.Stats
			}
		}
		recs = append(recs, newRecord("auto:"+w.name+":auto-cold", "auto", 0, cold.QueryProfile))

		// Warm: decisions see the feedback the cold runs stored.
		warm, err := minExec(w.sql, wasmdb.WithAutoTuning())
		if err != nil {
			return nil, fmt.Errorf("auto:%s warm: %w", w.name, err)
		}
		recs = append(recs, newRecord("auto:"+w.name+":auto-warm", "auto", 0, warm.QueryProfile))

		if warm.Auto != w.wantChoice {
			return nil, fmt.Errorf("auto:%s: warm decision %q, want %q", w.name, warm.Auto, w.wantChoice)
		}
		// Crossover check on execution time. The 100µs floor keeps scheduler
		// noise on sub-millisecond runs from failing a comparison between two
		// executions of the same machine code.
		if limit := bestClass + bestClass/10 + 100_000; warm.Execute.Nanoseconds() > limit {
			return nil, fmt.Errorf("auto:%s: warm auto exec %dns exceeds best-in-class %dns by >10%%",
				w.name, warm.Execute.Nanoseconds(), bestClass)
		}
	}

	// Misprediction correction: four always-true conjuncts make the planner
	// estimate ~6% of customer when every row qualifies. The cold decision
	// interprets; the observed cardinality stored on the feedback slot scales
	// the warm estimate up and flips the decision to a compiling choice.
	mis := "SELECT c_custkey, c_acctbal FROM customer " +
		"WHERE c_acctbal > -99999 AND c_acctbal > -99998 AND c_acctbal > -99997 AND c_acctbal > -99996 " +
		"ORDER BY c_custkey"
	db.FlushPlanCache()
	coldRes, err := db.Query(mis, wasmdb.WithAutoTuning())
	if err != nil {
		return nil, fmt.Errorf("auto:mispredict cold: %w", err)
	}
	warmRes, err := db.Query(mis, wasmdb.WithAutoTuning())
	if err != nil {
		return nil, fmt.Errorf("auto:mispredict warm: %w", err)
	}
	recs = append(recs,
		newRecord("auto:mispredict:cold", "auto", 0, coldRes.Stats.QueryProfile),
		newRecord("auto:mispredict:warm", "auto", 0, warmRes.Stats.QueryProfile))
	if coldRes.Stats.Auto == warmRes.Stats.Auto {
		return nil, fmt.Errorf("auto:mispredict: warm decision %q did not change from cold", warmRes.Stats.Auto)
	}
	return recs, nil
}
