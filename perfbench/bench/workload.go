// Package bench holds the benchmark's workloads, result oracle, open-loop
// load generator and statistics. It reaches the program only through the
// public wasmdb package and the query service's New/Config/Handler, so
// refactors of the internal layers cannot change the gated numbers.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"wasmdb"
)

// Kind is one query shape a workload issues.
type Kind struct {
	Name string
	SQL  string
	// Ordered marks queries whose ORDER BY fixes the row order; all others
	// are compared row-order-insensitively.
	Ordered bool
}

// Spec describes one closed-loop workload: a single client thread issuing
// its kinds in seeded order, each query waiting for the previous one.
type Spec struct {
	Name string
	Why  string
	// Scale is the TPC-H scale factor.
	Scale float64
	// Parallelism is the per-query worker request (0 = serial default).
	Parallelism int
	// Cold flushes the plan cache, untimed, before every query, so each one
	// pays parse, codegen, engine compile and tier-up.
	Cold  bool
	Kinds []Kind
	// NominalOpsPerSec is the throughput the tail percentile is fixed
	// from: TailPercentile(NominalOpsPerSec × seconds, 10). It is set below
	// the lowest throughput measured, so that every run has at least 10
	// samples beyond the percentile.
	NominalOpsPerSec float64
}

// Options returns the query options of the workload.
func (s *Spec) Options() []wasmdb.Option {
	if s.Parallelism > 0 {
		return []wasmdb.Option{wasmdb.WithParallelism(s.Parallelism)}
	}
	return nil
}

func tpchKinds(ids ...string) []Kind {
	var ks []Kind
	for _, id := range ids {
		sql, ok := wasmdb.TPCHQuery(id)
		if !ok {
			panic("unknown TPC-H query " + id)
		}
		// Q1, Q3 and Q12 carry an ORDER BY; Q6 and Q14 return one row.
		ks = append(ks, Kind{Name: id, SQL: sql, Ordered: id == "Q1" || id == "Q3" || id == "Q12"})
	}
	return ks
}

// TPCHSeed fixes the TPC-H data, as dbgen's fixed database does for a
// scale factor: the workload seed varies the query order, binds, arrival
// schedule and inserted rows, so runs of different seeds measure the same
// tables.
const TPCHSeed = 1

// HighCardGroup merges one group per order at the parallel group barrier.
const HighCardGroup = "SELECT l_orderkey, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_orderkey"

// ClosedLoop lists the closed-loop workloads by name.
var ClosedLoop = map[string]*Spec{
	"adhoc-cold": {
		Name: "adhoc-cold",
		Why: "paper Fig 1/10: every query pays parse, codegen, decode/validate and liftoff, " +
			"then tiers up mid-query; the only workload where front end and compile show",
		Scale:            0.002,
		Cold:             true,
		Kinds:            tpchKinds("Q1", "Q3", "Q6", "Q12", "Q14"),
		NominalOpsPerSec: 30,
	},
	"olap-parallel": {
		Name: "olap-parallel",
		Why: "warm cache, 2 workers: turbofan code, morsel dispatch, join/group/sort barriers " +
			"and large-result decode move it; front end and compile cannot",
		Scale:       0.05,
		Parallelism: 2,
		Kinds: append(tpchKinds("Q1", "Q3", "Q6", "Q12", "Q14"),
			Kind{Name: "cust_orders", SQL: "SELECT c_mktsegment, COUNT(*), SUM(o_totalprice) " +
				"FROM customer, orders WHERE c_custkey = o_custkey GROUP BY c_mktsegment"},
			Kind{Name: "orders_sorted", Ordered: true, SQL: "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate " +
				"FROM orders ORDER BY o_orderkey"}),
		NominalOpsPerSec: 4.5,
	},
	"group-highcard": {
		Name: "group-highcard",
		Why: "warm cache, 2 workers, ~75k groups: the parallel group-merge barrier does most " +
			"of the work, unlike olap-parallel where it merges a few hundred groups",
		Scale:            0.05,
		Parallelism:      2,
		Kinds:            []Kind{{Name: "group_orderkey", SQL: HighCardGroup}},
		NominalOpsPerSec: 1,
	},
}

// Sample is one timed operation.
type Sample struct {
	Kind string
	// Lat is the latency; for the open loop it runs from when the request
	// was due.
	Lat time.Duration
	// Write marks an INSERT batch.
	Write bool
	// Failed marks an error, refusal, time-out or wrong result.
	Failed bool
	// Wrong marks a wrong result or an unexpected error (not a refusal).
	Wrong bool
	// Unchecked marks a read whose result was not checked (an events read
	// that overlapped too many INSERTs to enumerate).
	Unchecked bool
	Err       string
}

// Env is a set-up closed-loop workload, ready to measure.
type Env struct {
	Spec   *Spec
	DB     *wasmdb.DB
	Oracle Oracle
	// Order is the seeded kind order the measured loop cycles through.
	Order []int
}

// SetupClosed generates and loads the data, computes every reference with
// the volcano backend (independent of the Wasm path), and warms the
// workload up: one pass over every kind, checked against the reference.
// Warm workloads wait for the optimizing tier during the warm-up.
func SetupClosed(spec *Spec, seed int64) (*Env, error) {
	db := wasmdb.Open()
	if err := db.LoadTPCH(spec.Scale, TPCHSeed); err != nil {
		return nil, fmt.Errorf("load TPC-H: %w", err)
	}
	env := &Env{Spec: spec, DB: db, Oracle: Oracle{}}
	for _, k := range spec.Kinds {
		ref, err := db.Query(k.SQL, wasmdb.WithBackend(wasmdb.BackendVolcano))
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", k.Name, err)
		}
		env.Oracle[RefKey(k.Name, nil)] = ResultAnswer(ref, k.Ordered)
	}
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < 64; c++ {
		for _, i := range rng.Perm(len(spec.Kinds)) {
			env.Order = append(env.Order, i)
		}
	}
	for _, k := range spec.Kinds {
		opts := spec.Options()
		if spec.Cold {
			db.FlushPlanCache()
		} else {
			opts = append(opts, wasmdb.WithWaitOptimized())
		}
		res, err := db.Query(k.SQL, opts...)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", k.Name, err)
		}
		if err := env.Oracle.Check(RefKey(k.Name, nil), ResultAnswer(res, k.Ordered)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return env, nil
}

// RunClosed measures the workload for d: one client issues the seeded kind
// order in a loop, each query checked against its reference. A query that
// is still running at the deadline completes and counts.
func (env *Env) RunClosed(d time.Duration) []Sample {
	opts := env.Spec.Options()
	var out []Sample
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		k := env.Spec.Kinds[env.Order[i%len(env.Order)]]
		if env.Spec.Cold {
			env.DB.FlushPlanCache()
		}
		t0 := time.Now()
		res, err := env.DB.Query(k.SQL, opts...)
		s := Sample{Kind: k.Name, Lat: time.Since(t0)}
		if err == nil {
			err = env.Oracle.Check(RefKey(k.Name, nil), ResultAnswer(res, k.Ordered))
		}
		if err != nil {
			s.Failed, s.Wrong, s.Err = true, true, err.Error()
		}
		out = append(out, s)
	}
	return out
}

// Summary is the end-to-end metrics of one measured run.
type Summary struct {
	Attempted, Failed, Wrong, Unchecked int
	QPS                                 float64
	P50Ms, TailMs, GeomeanMs            float64
	WriteP50Ms                          float64
	TailPct                             float64
	TailBeyond                          int
	// KindP50Ms is each kind's median latency.
	KindP50Ms map[string]float64
	Errors    []string
}

// Summarize computes the end-to-end metrics. Failed operations count as
// samples beyond any latency limit: they enter the read percentiles as
// window (the measuring window's length). busy is the time qps is taken
// over: the measuring window for the open loop, the sum of operation
// latencies for a closed loop (untimed checks and cache flushes excluded).
func Summarize(samples []Sample, tailPct float64, busy, window time.Duration) Summary {
	sm := Summary{TailPct: tailPct}
	limit := ms(window)
	var reads, writes []float64
	byKind := map[string][]float64{}
	var kinds []string
	completed := 0
	for _, s := range samples {
		sm.Attempted++
		if s.Unchecked {
			sm.Unchecked++
		}
		lat := ms(s.Lat)
		if s.Failed {
			sm.Failed++
			lat = math.Inf(1)
			if s.Wrong {
				sm.Wrong++
			}
			if len(sm.Errors) < 5 {
				sm.Errors = append(sm.Errors, s.Err)
			}
		} else {
			completed++
		}
		if s.Write {
			writes = append(writes, lat)
			continue
		}
		reads = append(reads, lat)
		if _, ok := byKind[s.Kind]; !ok {
			kinds = append(kinds, s.Kind)
		}
		byKind[s.Kind] = append(byKind[s.Kind], lat)
	}
	finite := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return limit
		}
		return v
	}
	if busy > 0 {
		sm.QPS = float64(completed) / busy.Seconds()
	}
	sm.P50Ms = finite(Median(reads))
	sm.TailMs = finite(Percentile(reads, tailPct))
	sm.TailBeyond = Beyond(len(reads), tailPct)
	sm.WriteP50Ms = finite(Median(writes))
	var meds []float64
	sm.KindP50Ms = map[string]float64{}
	for _, k := range kinds {
		sm.KindP50Ms[k] = finite(Median(byKind[k]))
		meds = append(meds, sm.KindP50Ms[k])
	}
	sm.GeomeanMs = Geomean(meds)
	return sm
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Busy sums the latencies of the samples.
func Busy(samples []Sample) time.Duration {
	var t time.Duration
	for _, s := range samples {
		t += s.Lat
	}
	return t
}

// Procs reports the core count and the Go scheduler's parallelism.
func Procs() (nproc, gomaxprocs int) {
	return runtime.NumCPU(), runtime.GOMAXPROCS(0)
}
