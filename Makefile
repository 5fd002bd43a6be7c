GO ?= go

.PHONY: build test verify fuzz lint-layers bench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the CI gate: compile everything, lint with vet, enforce the
# observability layering invariant, and run the full suite under the race
# detector (the guardrail watchdog, background tier-up, and the parallel
# morsel worker pool — including the fault-injection and cancellation tests
# in internal/core/parallel_test.go — are concurrency-heavy paths).
verify: lint-layers
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...

# internal/obs must stay at the bottom of the dependency graph: it may
# import nothing from this module, or every layer recording into it would
# risk an import cycle. Fails if any wasmdb-internal import appears.
# internal/plancache sits above core and engine and below the public API:
# it may import only core, engine, and obs, and nothing under core or
# engine may import it back. Per-query facts are read off a trace in one
# place, obs.NewQueryProfile: non-test code in the API, core, server,
# experiments, plancache, autopilot and cmd may not call Trace.Dur,
# Trace.Value on an executor counter, or Trace.Events.
lint-layers:
	@if grep -n '"wasmdb/' internal/obs/*.go; then \
		echo "lint-layers: internal/obs must not import other wasmdb packages" >&2; \
		exit 1; \
	fi
	@if grep -rn '"wasmdb/internal/plancache"' internal/core internal/engine; then \
		echo "lint-layers: core/engine must not import internal/plancache (it sits above them)" >&2; \
		exit 1; \
	fi
	@if grep -n '"wasmdb/' internal/plancache/*.go | grep -v 'wasmdb/internal/core"\|wasmdb/internal/engine"\|wasmdb/internal/obs"'; then \
		echo "lint-layers: internal/plancache may import only core, engine, and obs" >&2; \
		exit 1; \
	fi
	@if grep -rn '"wasmdb/internal/server"' internal/core internal/engine internal/plancache; then \
		echo "lint-layers: core/engine/plancache must not import internal/server (it sits above the public API)" >&2; \
		exit 1; \
	fi
	@if grep -n '"wasmdb/' internal/server/*.go | grep -v '_test.go:' | grep -v '"wasmdb"\|wasmdb/internal/obs"\|wasmdb/internal/faultpoint"'; then \
		echo "lint-layers: internal/server may import only the public API (wasmdb), obs, and faultpoint" >&2; \
		exit 1; \
	fi
	@if grep -n '"wasmdb/' internal/autopilot/*.go | grep -v '_test.go:' | grep -v 'wasmdb/internal/plan"\|wasmdb/internal/plancache"\|wasmdb/internal/obs"'; then \
		echo "lint-layers: internal/autopilot may import only plan, plancache, and obs" >&2; \
		exit 1; \
	fi
	@if grep -n --exclude='*_test.go' -e '\.Dur(obs\.' -e '\.Value(obs\.Ctr' -e '\.Events()' \
		*.go internal/core/*.go internal/server/*.go internal/experiments/*.go \
		internal/plancache/*.go internal/autopilot/*.go cmd/*/*.go; then \
		echo "lint-layers: only internal/obs reads per-query facts off a trace; use obs.NewQueryProfile" >&2; \
		exit 1; \
	fi
	@echo "lint-layers: ok (internal/obs imports stdlib only; plancache between core/engine and the API; server above the API; autopilot beside the planner; only obs.QueryProfile reads a trace)"

# bench-smoke runs one micro-benchmark per backend at a small scale, the
# 1/2/4-worker scaling experiment, the plan-cache cold/warm experiment, the
# autopilot crossover experiment (small→interpret, large→compile, and the
# feedback-corrected warm decision — fails if auto misses best-in-class by
# >10%), and the concurrent-serving load experiment (throughput/p99/rejection-rate at
# 1/4/8 virtual users against a 2-slot server, plus the telemetry-overhead
# probe, which fails the run above a 5% p50 regression), and validates that
# the emitted BENCH_*.json parse (the bench binary re-reads and unmarshals
# what it wrote). It then asserts the disabled-tracer contract on the morsel
# dispatch path: with no trace attached the telemetry must cost only a nil
# check, so traced-vs-untraced overhead stays ≈0% (≤5% allows timer noise).
bench-smoke:
	$(GO) run ./cmd/bench -experiment smoke,scaling,plancache,serving,auto -rows 100000 -reps 1 -sf 0.01 -json
	@rm -f BENCH_smoke.json BENCH_scaling.json BENCH_plancache.json BENCH_serving.json BENCH_auto.json
	@$(GO) test ./internal/core -run '^$$' -bench 'BenchmarkMorselDispatch(Untraced|Traced)$$' -benchtime 200x -count 3 \
		| awk '/DispatchUntraced/ { if (u==0 || $$3<u) u=$$3 } \
		       /DispatchTraced/   { if (t==0 || $$3<t) t=$$3 } \
		       END { if (u==0 || t==0) { print "bench-smoke: missing morsel-dispatch benchmark output" > "/dev/stderr"; exit 1 } \
		             pct=(t-u)*100.0/u; \
		             printf "bench-smoke: morsel-dispatch tracer overhead %.1f%% (untraced %d ns/op, traced %d ns/op)\n", pct, u, t; \
		             if (pct > 5) { print "bench-smoke: tracer overhead exceeds the ≈0% budget" > "/dev/stderr"; exit 1 } }'

# fuzz the adversarial-module executor for a short budget.
fuzz:
	$(GO) test . -run '^$$' -fuzz FuzzAdversarialModuleExecution -fuzztime 30s
