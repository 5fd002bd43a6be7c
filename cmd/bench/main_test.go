package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"wasmdb/internal/experiments"
)

// TestSmokeEmitsValidJSON runs the per-backend smoke benchmark at a tiny
// scale and proves the BENCH_*.json output round-trips through the schema
// downstream tooling parses.
func TestSmokeEmitsValidJSON(t *testing.T) {
	recs, err := experiments.Smoke(experiments.Options{Rows: 20_000, Reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(experiments.DefaultSystems) {
		t.Fatalf("got %d records, want one per system (%d)", len(recs), len(experiments.DefaultSystems))
	}

	path := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	if err := writeAndValidate(path, recs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []experiments.Record
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatalf("emitted JSON does not parse: %v\n%s", err, b)
	}
	seen := map[string]bool{}
	for _, r := range parsed {
		if r.Name != "smoke" {
			t.Errorf("record name %q, want smoke", r.Name)
		}
		if r.ExecNs <= 0 {
			t.Errorf("backend %s: exec_ns = %d, want > 0", r.Backend, r.ExecNs)
		}
		if r.GOMAXPROCS <= 0 || r.NumCPU <= 0 {
			t.Errorf("backend %s: gomaxprocs = %d, num_cpu = %d, want both > 0", r.Backend, r.GOMAXPROCS, r.NumCPU)
		}
		seen[r.Backend] = true
		// The compiling architectures must report compile phases.
		if r.Backend == "mutable" || r.Backend == "hyper" {
			if r.TranslateNs <= 0 {
				t.Errorf("backend %s: translate_ns = %d, want > 0", r.Backend, r.TranslateNs)
			}
			if r.MorselsLiftoff+r.MorselsTurbofan == 0 {
				t.Errorf("backend %s: no morsel accounting", r.Backend)
			}
		}
	}
	for _, sys := range experiments.DefaultSystems {
		if !seen[sys] {
			t.Errorf("no record for system %s", sys)
		}
	}
}

// TestPlanCacheBenchEmitsValidJSON runs the plan-cache cold/warm experiment
// at a tiny scale and proves its BENCH_plancache.json round-trips and shows
// the cache contract: the cold record pays compilation, the warm record
// reports zero compile time and runs entirely on the optimizing tier.
func TestPlanCacheBenchEmitsValidJSON(t *testing.T) {
	recs, err := experiments.PlanCache(experiments.Options{SF: 0.005, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want cold+warm", len(recs))
	}
	path := filepath.Join(t.TempDir(), "BENCH_plancache.json")
	if err := writeAndValidate(path, recs); err != nil {
		t.Fatal(err)
	}
	byName := map[string]experiments.Record{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	cold, warm := byName["plancache:cold"], byName["plancache:warm"]
	if cold.TranslateNs <= 0 || cold.Liftoff <= 0 {
		t.Errorf("cold record missing compile phases: %+v", cold)
	}
	if warm.Liftoff != 0 || warm.Turbofan != 0 {
		t.Errorf("warm record reports compile time: %+v", warm)
	}
	if warm.MorselsLiftoff != 0 || warm.MorselsTurbofan == 0 {
		t.Errorf("warm record not fully on the optimizing tier: %+v", warm)
	}
	if warm.ExecNs <= 0 {
		t.Errorf("warm record has no execution time: %+v", warm)
	}
}
