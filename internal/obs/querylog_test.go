package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// sliceSink collects emitted records in memory.
type sliceSink struct {
	mu   sync.Mutex
	recs []QueryLogRecord
}

func (s *sliceSink) Emit(rec QueryLogRecord) {
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
}

func (s *sliceSink) snapshot() []QueryLogRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QueryLogRecord, len(s.recs))
	copy(out, s.recs)
	return out
}

// sampleTrace builds a trace shaped like a real adaptive query: phase spans,
// a tier-up, a plan-cache hit, and the executor counters.
func sampleTrace() *Trace {
	tr := NewTrace()
	tr.Label = "SELECT 1"
	tr.RequestID = "req-42"
	tr.AddSpan(SpanParse, tr.StartTime(), 2*time.Millisecond)
	tr.AddSpan(SpanSema, tr.StartTime(), 1*time.Millisecond)
	tr.AddSpan(SpanPlan, tr.StartTime(), 3*time.Millisecond)
	tr.AddSpan(SpanCodegen, tr.StartTime(), 4*time.Millisecond)
	tr.AddSpan(SpanLiftoff, tr.StartTime(), 5*time.Millisecond)
	tr.AddSpan(SpanExecute, tr.StartTime(), 7*time.Millisecond)
	tr.Event(EvTierUp, I("func", 2), I("morsel", 17))
	tr.Event(EvPlanCache, S("result", "hit"), S("fingerprint", "abcdef012345"), S("tier", "turbofan"))
	tr.Event(EvSerialFallback, S("reason", "limit"))
	tr.Set(CtrMorselsLiftoff, 10)
	tr.Set(CtrMorselsTurbofan, 30)
	tr.Set(CtrWorkers, 4)
	tr.Set(CtrFuelUsed, 999)
	tr.Set(CtrPeakMemBytes, 1<<20)
	tr.Set(CtrResultRows, 55)
	return tr
}

// TestRecordFromTrace: every derived field of the query-log record comes out
// of the trace correctly, through the query profile.
func TestRecordFromTrace(t *testing.T) {
	tr := sampleTrace()
	rec := NewQueryProfile(tr, 30*time.Millisecond).Record(tr)
	if rec.RequestID != "req-42" {
		t.Errorf("RequestID = %q", rec.RequestID)
	}
	ms := time.Millisecond
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"parse", rec.Parse, 2 * ms},
		{"sema", rec.Sema, 1 * ms},
		{"plan", rec.Plan, 3 * ms},
		{"codegen", rec.Codegen, 4 * ms},
		{"liftoff", rec.Liftoff, 5 * ms},
		{"pipelines", rec.Pipelines, 7 * ms},
		{"total", rec.Total, 30 * ms},
		{"other", rec.Other, 8 * ms},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if rec.Tier != "mixed" {
		t.Errorf("Tier = %q, want mixed", rec.Tier)
	}
	if len(rec.TierUps) != 1 || rec.TierUps[0] != (TierUp{Func: 2, Morsel: 17}) {
		t.Errorf("TierUps = %+v", rec.TierUps)
	}
	if rec.PlanCache != "hit" || rec.Fingerprint != "abcdef012345" {
		t.Errorf("PlanCache = %q fingerprint = %q", rec.PlanCache, rec.Fingerprint)
	}
	if rec.SerialFallback != "limit" {
		t.Errorf("SerialFallback = %q", rec.SerialFallback)
	}
	if rec.Workers != 4 || rec.FuelUsed != 999 || rec.PeakMemBytes != 1<<20 || rec.Rows != 55 {
		t.Errorf("counters: %+v", rec)
	}
	if rec.Trace == nil {
		t.Error("Trace not carried")
	}
}

// TestQueryLogEmitsJSONLines: records flow through the async log to a
// WriterSink as one JSON object per line, with the trace elided.
func TestQueryLogEmitsJSONLines(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	lockedWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	l := NewQueryLog(NewWriterSink(lockedWriter), QueryLogConfig{})
	tr := sampleTrace()
	rec := NewQueryProfile(tr, 12345).Record(tr)
	rec.SQL = "SELECT 1"
	rec.QueryHash = HashQuery(rec.SQL)
	rec.Backend = "wasm-adaptive"
	l.Observe(rec)
	l.Close()

	mu.Lock()
	line := strings.TrimSpace(buf.String())
	mu.Unlock()
	var got map[string]any
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("record is not one JSON line: %v\n%s", err, line)
	}
	for _, key := range []string{"sql", "query_hash", "plan_fingerprint", "backend", "tier",
		"plan_cache", "request_id", "parse_ns", "sema_ns", "plan_ns", "codegen_ns", "decode_ns",
		"validate_ns", "liftoff_ns", "rewire_ns", "instantiate_ns", "pipelines_ns", "merge_ns",
		"admission_ns", "turbofan_ns", "total_ns", "other_ns", "rows"} {
		if _, ok := got[key]; !ok {
			t.Errorf("record missing %q: %s", key, line)
		}
	}
	if _, ok := got["Trace"]; ok {
		t.Error("trace must not serialize into the log")
	}
	if got["query_hash"] != HashQuery("SELECT 1") {
		t.Errorf("query_hash = %v", got["query_hash"])
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestQueryLogNeverBlocks: with the flusher wedged, Observe must drop (and
// count) rather than stall the query path.
func TestQueryLogNeverBlocks(t *testing.T) {
	release := make(chan struct{})
	blocked := &blockingSink{release: release}
	dropped := Default.Counter(MetricQuerylogDropped).Value()
	l := NewQueryLog(blocked, QueryLogConfig{Buffer: 2})
	done := make(chan struct{})
	go func() {
		for i := 0; i < 20; i++ {
			l.Observe(QueryLogRecord{SQL: "q"})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Observe blocked on a wedged sink")
	}
	close(release)
	l.Close()
	if d := Default.Counter(MetricQuerylogDropped).Value() - dropped; d == 0 {
		t.Error("no drops counted despite a wedged sink")
	}
}

type blockingSink struct {
	release chan struct{}
	once    sync.Once
}

func (s *blockingSink) Emit(QueryLogRecord) {
	s.once.Do(func() { <-s.release })
}

// TestSlowPromotionRateLimited: slow records are always logged, but only the
// rate limiter's budget of them get the full span timeline attached.
func TestSlowPromotionRateLimited(t *testing.T) {
	sink := &sliceSink{}
	l := NewQueryLog(sink, QueryLogConfig{SlowEvery: time.Hour, SlowBurst: 3})
	for i := 0; i < 10; i++ {
		tr := sampleTrace()
		rec := NewQueryProfile(tr, 0).Record(tr)
		rec.SQL = fmt.Sprintf("q%d", i)
		rec.Slow = true
		l.Observe(rec)
	}
	l.Close()
	recs := sink.snapshot()
	if len(recs) != 10 {
		t.Fatalf("logged %d records, want all 10", len(recs))
	}
	promoted := 0
	for _, r := range recs {
		if r.Promoted {
			promoted++
			if len(r.Spans) == 0 {
				t.Error("promoted record carries no span timeline")
			}
		} else if len(r.Spans) != 0 {
			t.Error("unpromoted record carries a span timeline")
		}
	}
	if promoted != 3 {
		t.Errorf("promoted %d records, want burst of 3", promoted)
	}
}

// TestQueryLogCloseIdempotentAndConcurrent: Close drains, is idempotent, and
// racing Observes during Close neither panic nor deadlock.
func TestQueryLogCloseIdempotentAndConcurrent(t *testing.T) {
	sink := &sliceSink{}
	l := NewQueryLog(sink, QueryLogConfig{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Observe(QueryLogRecord{SQL: "q"})
			}
		}()
	}
	l.Close()
	l.Close()
	wg.Wait()
	l.Observe(QueryLogRecord{SQL: "late"}) // after Close: dropped, no panic
}
