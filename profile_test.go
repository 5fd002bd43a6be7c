package wasmdb

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"wasmdb/internal/core"
	"wasmdb/internal/engine"
	"wasmdb/internal/obs"
	"wasmdb/internal/plan"
	"wasmdb/internal/sema"
	"wasmdb/internal/sql"
)

func profileDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	return db
}

// autoFeedbackKey re-derives the plan-cache feedback key runQuery files a
// BackendAuto query's feedback under: the adaptive-tier fingerprint of the
// parameterized query.
func autoFeedbackKey(t *testing.T, db *DB, src string) string {
	t.Helper()
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sema.Analyze(stmt, db.cat)
	if err != nil {
		t.Fatal(err)
	}
	sema.Parameterize(q)
	p, err := plan.Build(q)
	if err != nil {
		t.Fatal(err)
	}
	return core.Fingerprint(q, p, db.cat.Version(), core.Style{}, engine.TierAdaptive, 0)
}

// TestProfileSurfacesAgree: one 2-worker grouped join under backend auto
// reports identical per-layer durations and counters on every surface —
// Result.Stats, the query-log record, EXPLAIN ANALYZE rendered from the
// same trace, and the autopilot feedback stored in the plan cache.
func TestProfileSurfacesAgree(t *testing.T) {
	db := profileDB(t)
	src := "SELECT o_orderpriority, COUNT(*), SUM(l_quantity) FROM orders, lineitem " +
		"WHERE o_orderkey = l_orderkey GROUP BY o_orderpriority"
	tr := NewTrace()
	var rec QueryLogRecord
	res, err := db.Query(src, WithAutoTuning(), WithParallelism(2), WithTrace(tr),
		WithQueryLog(func(r QueryLogRecord) { rec = r }))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Auto != "liftoff" && st.Auto != "adaptive" {
		t.Fatalf("auto chose %q; the test needs a compiled plan", st.Auto)
	}
	if st.Workers != 2 || st.Merge <= 0 || st.Pipelines <= 0 {
		t.Fatalf("query did not run a 2-worker merge barrier: workers %d, merge %v, pipelines %v",
			st.Workers, st.Merge, st.Pipelines)
	}

	// Stats and the query-log record are the same profile.
	if !reflect.DeepEqual(st.QueryProfile, rec.QueryProfile) {
		t.Errorf("Stats and query log disagree:\nstats  %+v\nrecord %+v", st.QueryProfile, rec.QueryProfile)
	}
	if st.Translate != st.TranslateTime() || st.Execute != st.ExecuteTime() {
		t.Errorf("Translate/Execute %v/%v, want %v/%v", st.Translate, st.Execute, st.TranslateTime(), st.ExecuteTime())
	}

	// EXPLAIN ANALYZE rendered from the same trace prints the same numbers.
	prof := obs.NewQueryProfile(tr, rec.Total-rec.Admission)
	if !reflect.DeepEqual(prof, st.QueryProfile) {
		t.Errorf("profile re-read from the trace differs:\ntrace %+v\nstats %+v", prof, st.QueryProfile)
	}
	out := renderAnalyze("", BackendAuto, &prof)
	want := []string{
		fmt.Sprintf("  %-18s %s\n", "total", fmtAnalyzeDur(st.Total)),
		fmt.Sprintf("  %-18s %s\n", "other", fmtAnalyzeDur(st.Other)),
		fmt.Sprintf("  morsels            %d liftoff / %d turbofan\n", st.MorselsLiftoff, st.MorselsTurbofan),
		fmt.Sprintf("  workers            %d (%d pipelines parallel, %d serial)\n",
			st.Workers, st.PipelinesParallel, st.PipelinesSerial),
		fmt.Sprintf("  rows               %d\n", res.NumRows()),
	}
	for _, l := range st.Layers() {
		if *l.Dur > 0 {
			want = append(want, fmt.Sprintf("  %-18s %s\n", l.Name, fmtAnalyzeDur(*l.Dur)))
		}
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("EXPLAIN ANALYZE lacks %q:\n%s", w, out)
		}
	}

	// The stored feedback is the same execution.
	fb, ok := db.pcache.Feedback(autoFeedbackKey(t, db, src))
	if !ok {
		t.Fatal("no feedback stored for the query's fingerprint")
	}
	if fb.ExecNs != (st.Pipelines+st.Merge).Nanoseconds() ||
		fb.Morsels != int64(st.MorselsLiftoff+st.MorselsTurbofan) ||
		fb.Workers != st.Workers || fb.SerialFallback != st.SerialFallback ||
		fb.TierUpMorsel != st.FirstSwitchMorsel || fb.Rows != int64(res.NumRows()) || fb.Choice != st.Auto {
		t.Errorf("feedback %+v disagrees with stats %+v", fb, st.QueryProfile)
	}
}

// TestProfileCoversWallClock: on the Fig. 10 TPC-H queries — cold, warm,
// and at 2 workers — the recorded layers cover the wall clock: the
// uncovered remainder is never negative and stays within 5% of the total.
func TestProfileCoversWallClock(t *testing.T) {
	db := profileDB(t)
	for _, id := range []string{"Q1", "Q3", "Q6", "Q12", "Q14"} {
		src, _ := TPCHQuery(id)
		db.FlushPlanCache()
		for _, run := range []struct {
			name string
			opts []Option
		}{
			{"cold", nil},
			{"warm", nil},
			{"2 workers", []Option{WithParallelism(2)}},
		} {
			res, err := db.Query(src, run.opts...)
			if err != nil {
				t.Fatalf("%s %s: %v", id, run.name, err)
			}
			st := res.Stats
			t.Logf("%s %s: other %v of total %v", id, run.name, st.Other, st.Total)
			if st.Other < 0 || st.Other > st.Total/20 {
				t.Errorf("%s %s: other %v of total %v (%.1f%%), want within [0, 5%%]",
					id, run.name, st.Other, st.Total, 100*float64(st.Other)/float64(st.Total))
			}
		}
	}
}
