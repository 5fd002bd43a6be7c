// Command perfbench is the repository's benchmark: one seeded run of a
// named workload through the public wasmdb API (and, for service-mix, the
// query service over loopback HTTP), every result checked against a
// reference, printing each end-to-end metric by name and unit. The
// per-layer breakdown comes from the separate traced command in ./traced.
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload adhoc-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"wasmdb/perfbench/bench"
)

// errWrong reports wrong results; the run still prints its result line.
var errWrong = errors.New("wrong results")

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errWrong) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: "+names())
	seed := flag.Int64("seed", 1, "seed of the query order, binds, arrival schedule and inserted rows")
	seconds := flag.Float64("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1 is served by the traced command")
	flag.Parse()
	if *trace != 0 {
		return fmt.Errorf("--trace %d: the traced run is the ./traced command", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	rec := bench.NewRecord(*workload, *seed, *seconds, false)
	window := time.Duration(*seconds * float64(time.Second))

	var samples []bench.Sample
	var busy time.Duration
	var tailPct float64
	switch {
	case bench.ClosedLoop[*workload] != nil:
		spec := bench.ClosedLoop[*workload]
		rec.Scale, rec.Workers = spec.Scale, spec.Parallelism
		tailPct = bench.TailPercentile(int(spec.NominalOpsPerSec**seconds), 10)
		var env *bench.Env
		err := repeatSetup(&rec, func() (err error) {
			env, err = bench.SetupClosed(spec, *seed)
			return err
		}, func() { env = nil })
		if err != nil {
			return err
		}
		steal := bench.StealSeconds()
		samples = env.RunClosed(window)
		rec.HostStealFrac = (bench.StealSeconds() - steal) / (window.Seconds() * float64(rec.NProc))
		busy = bench.Busy(samples)
	case *workload == bench.Service.Name:
		spec := bench.Service
		rec.Scale, rec.Conns, rec.RateRPS = spec.Scale, bench.Conns(), spec.Rate
		tailPct = bench.TailPercentile(int(spec.Rate*(1-spec.WriteFrac)**seconds), 10)
		var env *bench.ServiceEnv
		err := repeatSetup(&rec, func() (err error) {
			env, err = bench.SetupService(spec, *seed)
			return err
		}, func() { env.Close(); env = nil })
		if err != nil {
			return err
		}
		steal := bench.StealSeconds()
		r := env.Run(*seed, window)
		rec.HostStealFrac = (bench.StealSeconds() - steal) / (window.Seconds() * float64(rec.NProc))
		env.Close()
		samples = env.Samples(r)
		busy = window
	default:
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, names())
	}

	sm := bench.Summarize(samples, tailPct, busy, window)
	rec.TailPct, rec.TailBeyond, rec.Samples, rec.Unchecked, rec.Errors = sm.TailPct, sm.TailBeyond, sm.Attempted, sm.Unchecked, sm.Errors
	rec.KindP50Ms = sm.KindP50Ms
	res := bench.Result{
		Correct: sm.Wrong == 0, Attempted: sm.Attempted, Failed: sm.Failed,
		Metrics: map[string]bench.Metric{
			"setup_s":            {Value: bench.Median(rec.Setups), Unit: "s"},
			"qps":                {Value: sm.QPS, Unit: "1/s"},
			"latency_p50_ms":     {Value: sm.P50Ms, Unit: "ms"},
			"latency_tail_ms":    {Value: sm.TailMs, Unit: "ms"},
			"latency_geomean_ms": {Value: sm.GeomeanMs, Unit: "ms"},
			"peak_rss_mb":        {Value: bench.PeakRSSMB(), Unit: "MB"},
		},
	}
	// Reported for reading, not gated: failed_frac is 0 on a healthy run
	// and write_p50_ms exists only where there are writes.
	extra := map[string]bench.Metric{"failed_frac": {Value: float64(sm.Failed) / float64(max(sm.Attempted, 1)), Unit: "ratio"}}
	if *workload == bench.Service.Name {
		extra["write_p50_ms"] = bench.Metric{Value: sm.WriteP50Ms, Unit: "ms"}
	}
	if err := bench.Print(os.Stdout, rec, extra, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%w: %d of %d operations (first: %v)", errWrong, sm.Wrong, sm.Attempted, sm.Errors)
	}
	return nil
}

// setups is how many times a run sets its workload up; setup_s is the
// median, which a single slow set-up cannot move.
const setups = 3

// repeatSetup runs setup several times, recording each duration, and keeps
// the last environment; the ones before it are released (drop) and
// collected untimed, so set-ups do not stack up in memory.
func repeatSetup(rec *bench.Record, setup func() error, drop func()) error {
	for i := 0; i < setups; i++ {
		if i > 0 {
			drop()
			runtime.GC()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rec.Setups = append(rec.Setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	return nil
}

func names() string {
	var ns []string
	for n := range bench.ClosedLoop {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return fmt.Sprint(append(ns, bench.Service.Name))
}
