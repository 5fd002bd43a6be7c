package experiments

import (
	"strings"
	"testing"

	"wasmdb/internal/harness"
	"wasmdb/internal/tpch"
	"wasmdb/internal/workload"
)

// tiny options keep the experiment machinery tests fast.
func tinyOpts() Options {
	return Options{Rows: 5000, Reps: 1, SF: 0.002}
}

func TestRunOnAllSystemsAgree(t *testing.T) {
	cat, err := workload.Catalog(workload.Spec{Name: "t", Rows: 2000, IntCols: 2, FloatCols: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := "SELECT COUNT(*) FROM t WHERE i0 < 0"
	for _, sys := range append(DefaultSystems, "liftoff", "turbofan", "adaptive") {
		prof, err := RunOn(cat, src, sys, false)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if prof.ExecuteTime() <= 0 {
			t.Errorf("%s: no execution time", sys)
		}
	}
	if _, err := RunOn(cat, src, "nonsense", false); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestFig6Machinery(t *testing.T) {
	o := tinyOpts()
	o.Systems = []string{"mutable", "vectorized"}
	fig := Fig6a(o)
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != len(fig.XTicks) {
			t.Errorf("%s: %d points for %d ticks", s.System, len(s.Points), len(fig.XTicks))
		}
	}
}

func TestFig10Machinery(t *testing.T) {
	o := tinyOpts()
	var sb strings.Builder
	if err := Fig10(o, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range tpch.QueryIDs {
		if !strings.Contains(out, id) {
			t.Errorf("missing %s in output", id)
		}
	}
	if !strings.Contains(out, "mutable") || !strings.Contains(out, "hyper") {
		t.Error("missing systems")
	}
}

func TestFig1Machinery(t *testing.T) {
	o := tinyOpts()
	var sb strings.Builder
	if err := Fig1(o, &sb); err != nil {
		t.Fatal(err)
	}
	for _, sys := range []string{"liftoff", "turbofan", "adaptive", "hyper"} {
		if !strings.Contains(sb.String(), sys) {
			t.Errorf("missing %s", sys)
		}
	}
}

func TestAblationMachinery(t *testing.T) {
	o := tinyOpts()
	fig := AblationSort(o)
	if len(fig.Series) != 2 {
		t.Fatalf("series: %d", len(fig.Series))
	}
	var sb strings.Builder
	AblationRewiring(o, &sb)
	if !strings.Contains(sb.String(), "rewire") {
		t.Error("rewiring ablation output")
	}
	if err := AblationTiers(o, &sb); err != nil {
		t.Fatal(err)
	}
	_ = harness.Reps
}
