package main

import (
	"time"

	"wasmdb/perfbench/bench"
)

// byReq sums each request's foreground span time per layer name.
func byReq(t *tracer) map[int]map[string]time.Duration {
	out := map[int]map[string]time.Duration{}
	for _, s := range t.spans[1:] {
		if s.Background {
			continue
		}
		if out[s.Req] == nil {
			out[s.Req] = map[string]time.Duration{}
		}
		out[s.Req][s.Name] += time.Duration(s.End - s.Start)
	}
	return out
}

// replayMetrics derives the per-layer metrics. A layer the replay
// exercises is measured there, as the median over the operations that
// reached it; a layer it does not reach (compile on a warm workload, the
// autopilot under a manual backend, storage without writes) is measured
// in the per-kind probes instead.
func replayMetrics(m metrics, rtr, ptr *tracer, res []*qres, pr *probeOut) {
	rl, pl := byReq(rtr), byReq(ptr)
	// Replay request i+1 is operation i; only reads enter the read layers.
	reads := map[int]*qres{}
	for i, r := range res {
		if r != nil {
			reads[i+1] = r
		}
	}
	probes := map[int]*qres{}
	for _, rr := range pr.runs {
		probes[rr.req] = rr.r
	}
	layerIn := func(l map[int]map[string]time.Duration, keep map[int]*qres, name string, ok func(*qres) bool) []float64 {
		var v []float64
		for req, r := range keep {
			if d, has := l[req][name]; has && (ok == nil || ok(r)) {
				v = append(v, float64(d.Nanoseconds()))
			}
		}
		return v
	}
	// pick is the median over the replay's reads, else over the probes, in
	// nanoseconds divided by unit.
	pick := func(name string, unit float64, ok func(*qres) bool) float64 {
		v := layerIn(rl, reads, name, ok)
		if len(v) == 0 {
			v = layerIn(pl, probes, name, ok)
		}
		return bench.Median(v) / unit
	}
	const us, ms = 1e3, 1e6
	for _, l := range []string{"sql.parse", "sema.analyze", "plan.build", "autopilot.decide", "core.codegen",
		"wasm.decode", "wasm.validate", "engine.liftoff_compile", "engine.turbofan_compile", "core.rewire", "core.init"} {
		m.set(l+"_us", pick(l, us, nil))
	}
	m.set("core.run_ms", pick("core.run", ms, nil))
	if len(layerIn(rl, reads, "autopilot.decide", nil)) == 0 {
		// Manual-backend workloads: the decision the autopilot would take.
		m.set("autopilot.decide_us", bench.Median(pr.decideUs))
	}
	hit := func(r *qres) bool { return r.hit }
	m.set("plancache.hit_us", pick("plancache.lookup", us, hit))

	// Plan estimates, autopilot choices and cache outcomes in the replay.
	var estErr, tier, modBytes, groups, peak []float64
	var decisions, interp, looked, hits, par, fallback int
	var lo, tf uint64
	for _, r := range reads {
		a, e := float64(max(len(r.rows), 1)), max(r.estRows, 1)
		estErr = append(estErr, max(a/e, e/a))
		if r.decision != nil {
			decisions++
			if r.interp != "" {
				interp++
			}
		}
		if r.looked {
			looked++
			if r.hit {
				hits++
			}
		}
		if r.stats != nil {
			lo += r.stats.MorselsLiftoff
			tf += r.stats.MorselsTurbofan
			peak = append(peak, float64(r.stats.PeakMemBytes)/(1<<20))
			if r.par {
				par++
				groups = append(groups, float64(r.stats.GroupsMerged))
				if r.stats.SerialFallback != "" {
					fallback++
				}
			}
		}
		if r.compiled {
			modBytes = append(modBytes, float64(r.modBytes))
		}
		if r.tierUp >= 0 {
			tier = append(tier, r.tierUp.Seconds()*1000)
		}
	}
	var pModBytes, pTier, pPeak []float64
	var plo, ptf uint64
	for _, r := range probes {
		if r.compiled {
			pModBytes = append(pModBytes, float64(r.modBytes))
		}
		if r.tierUp >= 0 {
			pTier = append(pTier, r.tierUp.Seconds()*1000)
		}
		if r.stats != nil {
			plo += r.stats.MorselsLiftoff
			ptf += r.stats.MorselsTurbofan
			pPeak = append(pPeak, float64(r.stats.PeakMemBytes)/(1<<20))
		}
	}
	or := func(a, b []float64) []float64 {
		if len(a) > 0 {
			return a
		}
		return b
	}
	m.set("plan.est_error", bench.Median(estErr))
	if decisions > 0 {
		m.set("autopilot.interpret_frac", float64(interp)/float64(decisions))
	} else {
		m.set("autopilot.interpret_frac", float64(pr.interp)/float64(max(pr.decisions, 1)))
	}
	m.set("autopilot.regret", bench.Geomean(pr.regret))
	m.set("core.module_bytes", bench.Median(or(modBytes, pModBytes)))
	m.set("engine.tierup_ms", bench.Median(or(tier, pTier)))
	if lo+tf == 0 {
		lo, tf = plo, ptf
	}
	m.set("engine.liftoff_morsel_frac", float64(lo)/float64(max(lo+tf, 1)))
	m.set("engine.liftoff_ns_per_row", bench.Geomean(pr.lnsRow))
	m.set("engine.turbofan_ns_per_row", bench.Geomean(pr.tnsRow))
	m.set("core.peak_mem_mb", bench.Max(or(peak, pPeak)))
	m.set("core.parallel_speedup", bench.Geomean(pr.speedup))
	// Merge barriers: the median over the parallel queries that ran one.
	var merge []float64
	for req, r := range reads {
		if d := rl[req]["core.merge"]; r.par && d > 0 {
			merge = append(merge, float64(d.Nanoseconds())/ms)
		}
	}
	if par > 0 {
		m.set("core.serial_fallback_frac", float64(fallback)/float64(par))
	} else {
		m.set("core.serial_fallback_frac", float64(pr.fallback)/float64(max(pr.parRuns, 1)))
	}
	m.set("core.merge_ms", bench.Median(or(merge, positive(pr.merge))))
	m.set("core.groups_merged", bench.Median(or(positive(groups), positive(pr.groups))))
	m.set("plancache.hit_ratio", float64(hits)/float64(max(looked, 1)))

	// Interpreters: where auto routes kinds to them in the replay, else
	// their execute time on the kinds auto routes to them, else on all.
	for _, l := range []string{"vectorized", "volcano"} {
		v := layerIn(rl, reads, l+".run", nil)
		if len(v) > 0 {
			m.set(l+".run_ms", bench.Median(v)/ms)
			continue
		}
		src := pr.vecMs
		if l == "volcano" {
			src = pr.volMs
		}
		var all, routed []float64
		for k, x := range src {
			all = append(all, x)
			if pr.autoInterp[k] {
				routed = append(routed, x)
			}
		}
		m.set(l+".run_ms", bench.Median(or(routed, all)))
	}

	var ins []float64
	for _, l := range rl {
		if d, ok := l["storage.insert"]; ok {
			ins = append(ins, float64(d.Nanoseconds())/us)
		}
	}
	m.set("storage.insert_us", bench.Median(or(ins, pr.insertUs)))

	var opTotal time.Duration
	for _, s := range rtr.spans[1:] {
		if s.Name == "op" {
			opTotal += time.Duration(s.End - s.Start)
		}
	}
	m.set("trace.unaccounted_frac", rtr.selfTimes()["op"].Seconds()/max(opTotal.Seconds(), 1e-12))
}

func positive(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}
