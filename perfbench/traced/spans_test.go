package main

import (
	"testing"
	"time"
)

func TestCoveredMergesOverlaps(t *testing.T) {
	got := covered([][2]int64{{5, 10}, {0, 3}, {2, 6}, {20, 25}, {21, 22}, {30, 30}})
	if got != 15 { // [0,10) + [20,25)
		t.Fatalf("covered = %d, want 15", got)
	}
}

func TestSelfTimeSubtractsForegroundChildren(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.add("op", 0, t0, 100, false)
	tr.add("sql.parse", root, t0, 10, false)
	exec := tr.add("core.execute", root, t0.Add(20), 70, false)
	tr.add("core.run", exec, t0.Add(30), 50, false)
	tr.add("engine.turbofan_compile", root, t0, 90, true)
	self := tr.selfTimes()
	want := map[string]time.Duration{
		"op": 20, "sql.parse": 10, "core.execute": 20, "core.run": 50,
		"engine.turbofan_compile": 90,
	}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
}
