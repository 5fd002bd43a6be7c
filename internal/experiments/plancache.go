package experiments

import (
	"fmt"

	"wasmdb"
)

// PlanCache measures the plan-fingerprint compiled-query cache on the
// paper's architecture: one cold execution of a query shape (codegen and
// JIT compilation included), then Reps warm executions of the same shape
// with a different literal each — every one a cache hit that skips codegen
// and both compile tiers and dispatches the optimizing tier from the first
// morsel. Emits two records, "plancache:cold" and "plancache:warm" (the
// warm record is the lowest-latency hit).
func PlanCache(o Options) ([]Record, error) {
	o.norm()
	db := wasmdb.Open()
	if err := db.LoadTPCH(o.SF, 42); err != nil {
		return nil, err
	}
	src := func(qty int) string {
		return fmt.Sprintf(
			"SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity < %d", qty)
	}
	// WithWaitOptimized lets the cold run finish its background TurboFan
	// compile before returning, so the cached module is fully tiered up and
	// warm runs measure pure optimized execution.
	run := func(sql string) (wasmdb.Stats, error) {
		res, err := db.Query(sql, wasmdb.WithWaitOptimized())
		if err != nil {
			return wasmdb.Stats{}, err
		}
		return res.Stats, nil
	}

	cold, err := run(src(25))
	if err != nil {
		return nil, err
	}

	var warm wasmdb.Stats
	for i := 0; i < o.Reps; i++ {
		st, err := run(src(26 + i))
		if err != nil {
			return nil, err
		}
		if i == 0 || st.Execute < warm.Execute {
			warm = st
		}
	}

	// Self-check before emitting: every warm run must have hit (one miss on
	// the cold run only), and a hit must report zero compile time.
	cs := db.PlanCacheStats()
	if cs.Misses != 1 || cs.Hits < int64(o.Reps) {
		return nil, fmt.Errorf("plancache: expected 1 miss and >=%d hits, got %d/%d",
			o.Reps, cs.Misses, cs.Hits)
	}
	if warm.Liftoff != 0 || warm.Turbofan != 0 {
		return nil, fmt.Errorf("plancache: warm run reports compile time (liftoff=%v turbofan=%v)",
			warm.Liftoff, warm.Turbofan)
	}

	return []Record{
		newRecord("plancache:cold", "mutable", 0, cold.QueryProfile),
		newRecord("plancache:warm", "mutable", 0, warm.QueryProfile),
	}, nil
}
