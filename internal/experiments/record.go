package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"wasmdb/internal/harness"
	"wasmdb/internal/obs"
	"wasmdb/internal/workload"
)

// Record is one machine-readable benchmark measurement — the schema of the
// BENCH_*.json files cmd/bench emits with -json, consumed by plotting and
// regression-tracking scripts.
type Record struct {
	// Name identifies the measurement ("smoke", "fig6a:10%", ...).
	Name string `json:"name"`
	// Backend is the system measured (mutable, hyper, vectorized, volcano,
	// liftoff, turbofan, adaptive).
	Backend string `json:"backend"`
	// Rows is the input cardinality, when the experiment has one.
	Rows int `json:"rows,omitempty"`
	// Timing is the run's per-layer profile in nanoseconds ("<layer>_ns",
	// turbofan_ns, total_ns, other_ns; zero when a layer does not apply).
	obs.Timing
	// TranslateNs and ExecNs are the Fig. 10 sums: parse through codegen,
	// and rewire through the merge barriers. Figure records carry only
	// ExecNs.
	TranslateNs int64 `json:"translate_ns"`
	ExecNs      int64 `json:"exec_ns"`
	// Morsel counts per tier under adaptive execution.
	MorselsLiftoff  uint64 `json:"morsels_liftoff"`
	MorselsTurbofan uint64 `json:"morsels_turbofan"`
	// Workers is the morsel worker-pool size the scheduler granted the run
	// — not the requested size a scaling record's ":w<n>" name carries, so
	// a serial fallback reads 1 — (0 for the interpreters and for
	// experiments that do not run one query).
	Workers int `json:"workers,omitempty"`
	// Fallback is the serial-fallback reason reported by the executor
	// (empty when the run parallelized as classified).
	Fallback string `json:"fallback,omitempty"`
	// Choice is the autopilot's routing decision for backend-auto runs
	// ("volcano" | "vectorized" | "liftoff" | "adaptive"; empty for manual
	// backends).
	Choice string `json:"choice,omitempty"`
	// GOMAXPROCS and NumCPU record the machine shape the run measured:
	// worker counts above NumCPU measure oversubscription, not scaling.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// Serving-experiment fields (BENCH_serving.json), one record per
	// concurrency level of the load harness. The four rate/latency fields
	// are deliberately not omitempty: a 0.0 rejection rate at low
	// concurrency is a measurement, not a missing value.
	Concurrency      int     `json:"concurrency,omitempty"`
	Requests         int     `json:"requests,omitempty"`
	Rejected         int     `json:"rejected,omitempty"`
	P50Ns            int64   `json:"p50_ns,omitempty"`
	ThroughputQPS    float64 `json:"throughput_qps"`
	P99Ns            int64   `json:"p99_ns"`
	RejectionRate    float64 `json:"rejection_rate"`
	PlanCacheHitRate float64 `json:"plancache_hit_rate"`
	// TelemetryOverheadPct is the p50 latency regression of full telemetry
	// (query log + per-query flight-recorder capture) over the baseline
	// server, measured by the serving experiment's overhead probe. The
	// experiment fails if it exceeds the 5% budget.
	TelemetryOverheadPct float64 `json:"telemetry_overhead_pct,omitempty"`
}

// newRecord is the bench-record view of one run's profile.
func newRecord(name, backend string, rows int, p obs.QueryProfile) Record {
	return Record{
		Name:            name,
		Backend:         backend,
		Rows:            rows,
		Timing:          p.Timing,
		TranslateNs:     p.TranslateTime().Nanoseconds(),
		ExecNs:          p.ExecuteTime().Nanoseconds(),
		MorselsLiftoff:  p.MorselsLiftoff,
		MorselsTurbofan: p.MorselsTurbofan,
		Workers:         p.Workers,
		Fallback:        p.SerialFallback,
		Choice:          p.Auto,
	}
}

// RecordsFromFigure flattens a rendered figure into records, one per
// (tick, system) point. Figures measure pure execution time, so only
// ExecNs is populated.
func RecordsFromFigure(id string, f *harness.Figure) []Record {
	var recs []Record
	for i, tick := range f.XTicks {
		for _, s := range f.Series {
			if i >= len(s.Points) {
				continue
			}
			recs = append(recs, Record{
				Name:    id + ":" + tick,
				Backend: s.System,
				ExecNs:  s.Points[i].Nanoseconds(),
			})
		}
	}
	return recs
}

// WriteRecords stamps every record with the machine shape and serializes
// the records as indented JSON.
func WriteRecords(w io.Writer, recs []Record) error {
	for i := range recs {
		recs[i].GOMAXPROCS, recs[i].NumCPU = runtime.GOMAXPROCS(0), runtime.NumCPU()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// Smoke runs one small micro-benchmark (a selective aggregation) per
// configured system, adaptively, and returns the full phase breakdown for
// each — the cheap end-to-end health check behind `make bench-smoke`.
func Smoke(o Options) ([]Record, error) {
	o.norm()
	cat, err := workload.Catalog(workload.Spec{
		Name: "t", Rows: o.Rows, IntCols: 2, FloatCols: 2, Seed: 4242,
	})
	if err != nil {
		return nil, err
	}
	src := "SELECT COUNT(*), SUM(f0) FROM t WHERE i0 < 0"
	var recs []Record
	for _, sys := range o.Systems {
		prof, err := RunOn(cat, src, sys, true)
		if err != nil {
			return nil, fmt.Errorf("smoke on %s: %w", sys, err)
		}
		recs = append(recs, newRecord("smoke", sys, o.Rows, prof))
	}
	return recs, nil
}
