package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilTraceIsInert: every method on a nil *Trace must be a safe no-op —
// this is the contract that lets hot paths pay only a pointer test.
func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	sp := tr.Begin("x")
	sp.End()
	tr.AddSpan("x", time.Now(), time.Second)
	tr.Event("x", I("k", 1), S("s", "v"))
	tr.AddMorsel()
	tr.Add("c", 1)
	tr.Set("c", 2)
	if tr.Dur("x") != 0 || tr.MorselCount() != 0 {
		t.Error("nil trace returned non-zero data")
	}
	if tr.Spans() != nil || tr.Events() != nil {
		t.Error("nil trace returned non-empty snapshots")
	}
	if err := tr.WriteTraceEvents(&bytes.Buffer{}); err != nil {
		t.Errorf("nil trace export: %v", err)
	}
}

func TestTraceRecords(t *testing.T) {
	tr := NewTrace()
	sp := tr.Begin(SpanParse)
	time.Sleep(time.Millisecond)
	sp.End(I("tokens", 42))
	tr.Event(EvTierUp, I("func", 3), I("morsel", 7))
	tr.Add(CtrFuelUsed, 100)
	tr.Add(CtrFuelUsed, 23)
	tr.AddMorsel()
	tr.AddMorsel()

	if d := tr.Dur(SpanParse); d < time.Millisecond {
		t.Errorf("parse span %v, want >= 1ms", d)
	}
	p := NewQueryProfile(tr, 0)
	if len(p.Tiers) != 1 || p.Tiers[0].Func != 3 || p.Tiers[0].Morsel != 7 {
		t.Errorf("tier-up event missing: %+v", p.Tiers)
	}
	if p.FuelUsed != 123 {
		t.Errorf("counter = %d, want 123", p.FuelUsed)
	}
	if tr.MorselCount() != 2 {
		t.Errorf("morsels = %d, want 2", tr.MorselCount())
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Args[0].Key != "tokens" {
		t.Errorf("span snapshot wrong: %+v", spans)
	}
}

// TestTraceConcurrent exercises the cross-goroutine contract: the morsel
// loop and the background compiler write into the same trace.
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.AddMorsel()
				tr.Event(EvFuel, I("remaining", int64(i)))
				sp := tr.Begin("work")
				sp.End()
			}
		}()
	}
	wg.Wait()
	if tr.MorselCount() != 4000 {
		t.Errorf("morsels = %d, want 4000", tr.MorselCount())
	}
	if len(tr.Events()) != 4000 || len(tr.Spans()) != 4000 {
		t.Errorf("events/spans = %d/%d, want 4000 each", len(tr.Events()), len(tr.Spans()))
	}
}

// TestTraceEventExportIsValidJSON pins the trace_event schema Perfetto
// requires: top-level traceEvents array, every record with name/ph, ts >= 0,
// and ph drawn from the set we emit.
func TestTraceEventExportIsValidJSON(t *testing.T) {
	tr := NewTrace()
	tr.Label = "SELECT 1"
	sp := tr.Begin(SpanExecute)
	sp.End(I("rows", 9))
	tr.Event(EvGrow, I("delta", 2), I("pages", 18))

	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, tr, nil, NewTrace()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(parsed.TraceEvents) < 3 { // metadata + span + instant (+ second trace's metadata)
		t.Fatalf("only %d events exported", len(parsed.TraceEvents))
	}
	phs := map[string]bool{"X": true, "i": true, "M": true}
	var sawSpan, sawInstant bool
	for _, ev := range parsed.TraceEvents {
		if ev.Name == "" || !phs[ev.Ph] {
			t.Errorf("malformed event %+v", ev)
		}
		if ev.Ts < 0 {
			t.Errorf("negative timestamp on %q", ev.Name)
		}
		switch ev.Ph {
		case "X":
			sawSpan = true
		case "i":
			sawInstant = true
		}
	}
	if !sawSpan || !sawInstant {
		t.Errorf("span/instant coverage: %v/%v", sawSpan, sawInstant)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(2)
	r.Counter("a").Add(3)
	r.Gauge("g").SetMax(10)
	r.Gauge("g").SetMax(4) // lower: must not regress
	h := r.Histogram("h")
	h.Observe(100)
	h.Observe(300)

	if v := r.Counter("a").Value(); v != 5 {
		t.Errorf("counter = %d, want 5", v)
	}
	if v := r.Gauge("g").Value(); v != 10 {
		t.Errorf("gauge = %d, want 10", v)
	}
	if h.Count() != 2 || h.Sum() != 400 || h.Mean() != 200 || h.Max() != 300 {
		t.Errorf("histogram count=%d sum=%d mean=%d max=%d", h.Count(), h.Sum(), h.Mean(), h.Max())
	}
	dump := r.Dump()
	for _, want := range []string{"a: 5", "g: 10", "h: count=2 sum=400 mean=200 max=300"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}
}

func TestActiveTraceSwap(t *testing.T) {
	tr := NewTrace()
	prev := SwapActive(tr)
	if Active() != tr {
		t.Error("active trace not installed")
	}
	SwapActive(prev)
	if Active() == tr {
		t.Error("active trace not restored")
	}
}
