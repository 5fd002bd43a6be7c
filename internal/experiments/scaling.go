package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/obs"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
	"wasmdb/internal/workload"
)

// ScalingWorkers are the worker-pool sizes the scaling experiment sweeps.
var ScalingWorkers = []int{1, 2, 4}

// scalingQueries are the parallel-eligible shapes the experiment sweeps:
// a keyless aggregation (merged via ad-hoc partial-state exports), a
// low-cardinality and a high-cardinality grouped aggregation (merged by the
// guest at the group barrier; the second groups the probe table's fk, which
// has about rows/4 distinct values, so the barrier does real work), and a
// hash join (build partitions merged at the same barrier, probe
// embarrassingly parallel). Queries marked pair run on the build/probe
// table pair; the others on the generic table t.
var scalingQueries = []struct {
	name string
	pair bool
	src  string
}{
	{"scaling", false, "SELECT COUNT(*), SUM(i0), MIN(i1), MAX(i1) FROM t WHERE i0 < 0"},
	{"scaling-group", false, "SELECT g0, COUNT(*), SUM(i0), MIN(i1), MAX(i1) FROM t GROUP BY g0"},
	{"scaling-group-highcard", true, "SELECT fk, COUNT(*), SUM(payload) FROM probe GROUP BY fk"},
	{"scaling-join", true, "SELECT COUNT(*) FROM build, probe WHERE build.pk = probe.fk"},
}

// Scaling measures intra-query parallel speedup: each query is compiled
// once and executed with 1, 2, and 4 morsel workers on fully optimized
// code. The queries are chosen to be parallel-eligible, so a serial
// fallback at w > 1 indicates a classifier regression; rather than abort
// the whole experiment, the fallback reason is recorded on the result row
// so the regression is visible in BENCH_scaling.json next to the numbers.
func Scaling(o Options) ([]Record, error) {
	o.norm()
	cat, err := workload.Catalog(workload.Spec{
		Name: "t", Rows: o.Rows, IntCols: 2, FloatCols: 2,
		GroupCols: 1, GroupDistinct: 64, Seed: 4343,
	})
	if err != nil {
		return nil, err
	}

	// Join pair: build is a quarter of the probe row count, unique keys.
	joinCat, err := workload.JoinPair(o.Rows/4, o.Rows, 1, 4343)
	if err != nil {
		return nil, err
	}

	eng := engine.New(engine.Config{Tier: engine.TierTurbofan})
	var recs []Record
	for _, qry := range scalingQueries {
		qcat := cat
		if qry.pair {
			qcat = joinCat
		}
		stmt, err := sql.ParseSelect(qry.src)
		if err != nil {
			return nil, err
		}
		q, err := sema.Analyze(stmt, qcat)
		if err != nil {
			return nil, err
		}
		p, err := plan.Build(q)
		if err != nil {
			return nil, err
		}
		cq, err := core.Compile(q, p)
		if err != nil {
			return nil, err
		}

		for _, w := range ScalingWorkers {
			// Every field of the record comes from one execution: the rep
			// with the median pipelines+merge time.
			profs := make([]obs.QueryProfile, max(o.Reps, 1))
			for i := range profs {
				tr := obs.NewTrace()
				start := time.Now()
				_, _, err := core.Execute(cq, q, eng, core.ExecOptions{
					WaitOptimized: true,
					Parallelism:   w,
					Trace:         tr,
				})
				if err != nil {
					return nil, fmt.Errorf("%s w=%d: %w", qry.name, w, err)
				}
				profs[i] = obs.NewQueryProfile(tr, time.Since(start))
			}
			slices.SortFunc(profs, func(a, b obs.QueryProfile) int {
				return cmp.Compare(a.Pipelines+a.Merge, b.Pipelines+b.Merge)
			})
			prof := profs[len(profs)/2]
			rec := newRecord(fmt.Sprintf("%s:w%d", qry.name, w), "mutable", o.Rows, prof)
			rec.ExecNs = (prof.Pipelines + prof.Merge).Nanoseconds()
			recs = append(recs, rec)
		}
	}
	return recs, nil
}
