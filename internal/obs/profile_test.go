package obs

import (
	"testing"
	"time"
)

// TestQueryProfileLayersDisjoint: a merge barrier nested in the execute span
// counts once, as merge; turbofan stays out of the sum; an admission span
// extends the total; and the events and counters land in their fields.
func TestQueryProfileLayersDisjoint(t *testing.T) {
	ms := time.Millisecond
	tr := NewTrace()
	at := tr.StartTime()
	tr.AddSpan(SpanAdmission, at, 4*ms)
	tr.AddSpan(SpanParse, at, 1*ms)
	tr.AddSpan(SpanExecute, at, 10*ms)
	tr.AddSpan(SpanMerge, at, 3*ms)
	tr.AddSpan(SpanMerge, at, 1*ms)
	tr.AddSpan(SpanTurbofan, at, 50*ms)
	tr.AddSpan(SpanPipeline+"pipeline_0", at, 2*ms, I("rows", 9), I("workers", 2))
	tr.AddSpan(SpanPipeline+"pipeline_1", at, 1*ms)
	tr.Event(EvTierUp, I("func", 1), I("morsel", 3))
	tr.Event(EvTierSwitch, I("func", 1), I("morsel", 4))
	tr.Event(EvAutopilot, S("choice", "adaptive"), I("workers", 2), S("reason", "big"))
	tr.Set(CtrGroupsMerged, 7)

	p := NewQueryProfile(tr, 20*ms)
	if p.Pipelines != 6*ms || p.Merge != 4*ms || p.Admission != 4*ms || p.Turbofan != 50*ms {
		t.Errorf("pipelines/merge/admission/turbofan = %v/%v/%v/%v, want 6ms/4ms/4ms/50ms",
			p.Pipelines, p.Merge, p.Admission, p.Turbofan)
	}
	if p.Total != 24*ms || p.Other != 9*ms {
		t.Errorf("total/other = %v/%v, want 24ms/9ms", p.Total, p.Other)
	}
	if p.ExecuteTime() != 10*ms || p.TranslateTime() != 1*ms {
		t.Errorf("execute/translate = %v/%v, want 10ms/1ms", p.ExecuteTime(), p.TranslateTime())
	}
	if len(p.PipelineSpans) != 2 || p.PipelineSpans[0] != (PipelineSpan{"pipeline_0", 2 * ms, 9, 2}) ||
		p.PipelineSpans[1].Rows != -1 {
		t.Errorf("pipeline spans = %+v", p.PipelineSpans)
	}
	if len(p.Tiers) != 2 || p.Tiers[0].Switch || !p.Tiers[1].Switch || p.FirstSwitchMorsel != 4 {
		t.Errorf("tiers = %+v, first switch morsel %d", p.Tiers, p.FirstSwitchMorsel)
	}
	if p.Auto != "adaptive" || p.AutoWorkers != 2 || p.AutoReason != "big" || p.GroupsMerged != 7 {
		t.Errorf("auto %q/%d/%q, groups merged %d", p.Auto, p.AutoWorkers, p.AutoReason, p.GroupsMerged)
	}
	var sum time.Duration
	for _, l := range p.Layers() {
		sum += *l.Dur
	}
	if sum+p.Other != p.Total {
		t.Errorf("layers %v + other %v != total %v", sum, p.Other, p.Total)
	}

	// A nil trace yields an empty profile whose total is the wall clock.
	if p := NewQueryProfile(nil, ms); p.Total != ms || p.Other != ms || p.FirstSwitchMorsel != -1 {
		t.Errorf("nil-trace profile = %+v", p)
	}
}
