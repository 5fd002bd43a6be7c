package obs

import (
	"testing"
	"time"
)

// TestPipelineSpansExcludeNestedMerges: a merge barrier counts in the
// merge layer, not in the time of the pipeline span it ran inside; a merge
// outside every pipeline span leaves them as they are.
func TestPipelineSpansExcludeNestedMerges(t *testing.T) {
	ms := time.Millisecond
	tr := NewTrace()
	at := tr.StartTime()
	tr.AddSpan(SpanExecute, at, 30*ms)
	tr.AddSpan(SpanPipeline+"pipeline_0", at, 10*ms)
	tr.AddSpan(SpanMerge, at.Add(6*ms), 4*ms) // ends with pipeline_0
	tr.AddSpan(SpanPipeline+"pipeline_1", at.Add(10*ms), 12*ms)
	tr.AddSpan(SpanMerge, at.Add(12*ms), 3*ms)
	tr.AddSpan(SpanMerge, at.Add(25*ms), 2*ms) // after both pipelines

	p := NewQueryProfile(tr, 30*ms)
	if len(p.PipelineSpans) != 2 || p.PipelineSpans[0].Dur != 6*ms || p.PipelineSpans[1].Dur != 9*ms {
		t.Errorf("pipeline spans = %+v, want pipeline_0 6ms and pipeline_1 9ms", p.PipelineSpans)
	}
	if p.Merge != 9*ms || p.Pipelines != 21*ms {
		t.Errorf("merge/pipelines = %v/%v, want 9ms/21ms", p.Merge, p.Pipelines)
	}
}

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
	// The pipeline spans start after the merges, so none nests in them.
	tr.AddSpan(SpanPipeline+"pipeline_0", at.Add(5*ms), 2*ms, I("rows", 9), I("workers", 2))
	tr.AddSpan(SpanPipeline+"pipeline_1", at.Add(7*ms), 1*ms)
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
