package bench

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {20, 1}, {80, 4}, {100, 5}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestFailedSamplesSitBeyondTheTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	xs[3] = math.Inf(1) // a failed request
	if got := Percentile(xs, 99); got != 100 {
		t.Errorf("p99 = %v, want 100 (the failure occupies the top rank)", got)
	}
	if got := Percentile(xs, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 = %v, want +Inf", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // rank 990 leaves 10 beyond
		{600, 98},  // p99 leaves 6, p98 leaves 12
		{100, 90},  // p90 leaves exactly 10
		{55, 81},   // rank 45 leaves 10
		{12, 50},   // too few samples: nothing above the median qualifies
	} {
		got := TailPercentile(c.n, 10)
		if got != c.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 50 && Beyond(c.n, got) < 10 {
			t.Errorf("TailPercentile(%d) = %v leaves only %d beyond", c.n, got, Beyond(c.n, got))
		}
		if got < 99 && got > 50 && Beyond(c.n, got+1) >= 10 {
			t.Errorf("TailPercentile(%d) = %v is not the highest qualifying percentile", c.n, got)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 4, 16}); math.Abs(got-4) > 1e-12 {
		t.Errorf("Geomean = %v, want 4", got)
	}
	// A 2x gain on one kind moves the geomean by 2^(1/n), however short
	// the kind is relative to the others.
	base := Geomean([]float64{0.5, 100, 100, 100})
	fast := Geomean([]float64{0.25, 100, 100, 100})
	if r := base / fast; math.Abs(r-math.Pow(2, 0.25)) > 1e-12 {
		t.Errorf("geomean ratio = %v, want 2^(1/4)", r)
	}
	if got := Geomean([]float64{0, math.Inf(1)}); got != 0 {
		t.Errorf("Geomean of no positive finite values = %v, want 0", got)
	}
}

func TestUncheckedReadsAreNeitherFailedNorWrong(t *testing.T) {
	samples := []Sample{
		{Kind: "a", Lat: time.Millisecond},
		{Kind: "a", Lat: 2 * time.Millisecond, Unchecked: true},
		{Kind: "a", Lat: 3 * time.Millisecond, Failed: true, Wrong: true},
	}
	sm := Summarize(samples, 50, time.Second, time.Second)
	if sm.Attempted != 3 || sm.Unchecked != 1 || sm.Failed != 1 || sm.Wrong != 1 {
		t.Errorf("attempted %d unchecked %d failed %d wrong %d, want 3 1 1 1",
			sm.Attempted, sm.Unchecked, sm.Failed, sm.Wrong)
	}
}
