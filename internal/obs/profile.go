package obs

import (
	"cmp"
	"slices"
	"strings"
	"time"
)

// Timing splits one query's wall clock across the fixed layer list, in
// order: front end (parse, sema, plan), codegen, engine compile (decode,
// validate, liftoff), setup (rewire, instantiate), the pipelines' morsels,
// the merge barriers, and the service's admission wait. The layers are
// disjoint: Pipelines is the execute spans minus the merge barriers nested
// in them. Durations serialize as integer nanoseconds under "<layer>_ns".
type Timing struct {
	Parse       time.Duration `json:"parse_ns"`
	Sema        time.Duration `json:"sema_ns"`
	Plan        time.Duration `json:"plan_ns"`
	Codegen     time.Duration `json:"codegen_ns"`
	Decode      time.Duration `json:"decode_ns"`
	Validate    time.Duration `json:"validate_ns"`
	Liftoff     time.Duration `json:"liftoff_ns"`
	Rewire      time.Duration `json:"rewire_ns"`
	Instantiate time.Duration `json:"instantiate_ns"`
	Pipelines   time.Duration `json:"pipelines_ns"`
	Merge       time.Duration `json:"merge_ns"`
	Admission   time.Duration `json:"admission_ns"`
	// Turbofan is the optimizing-tier compile time. It is reported beside
	// the layers but kept out of their sum: under adaptive execution it runs
	// on the background goroutine, overlapping the layers above. (When a
	// query waits for it — forced turbofan tier, WithWaitOptimized — the
	// wait shows in Other.)
	Turbofan time.Duration `json:"turbofan_ns"`
	// Total is the query's wall clock plus the admission wait that preceded
	// it; Other is Total minus the sum of the layers — the time no span
	// covers (result decode, locking, autopilot decision, ...).
	Total time.Duration `json:"total_ns"`
	Other time.Duration `json:"other_ns"`
}

// Layer is one entry of the fixed layer list: its display name, the span
// it is read from, and its duration field.
type Layer struct {
	Name, Span string
	Dur        *time.Duration
}

// NumLayers is the length of the fixed layer list.
const NumLayers = 12

// Layers lists t's layers in their fixed order.
func (t *Timing) Layers() [NumLayers]Layer {
	return [NumLayers]Layer{
		{"parse", SpanParse, &t.Parse},
		{"sema", SpanSema, &t.Sema},
		{"plan", SpanPlan, &t.Plan},
		{"codegen", SpanCodegen, &t.Codegen},
		{"decode", SpanDecode, &t.Decode},
		{"validate", SpanValidate, &t.Validate},
		{"liftoff compile", SpanLiftoff, &t.Liftoff},
		{"rewire", SpanRewire, &t.Rewire},
		{"instantiate", SpanInstantiate, &t.Instantiate},
		{"pipelines", SpanExecute, &t.Pipelines},
		{"merge barrier", SpanMerge, &t.Merge},
		{"admission", SpanAdmission, &t.Admission},
	}
}

// TranslateTime is SQL → plan → Wasm: parse, sema, plan, and codegen.
func (t Timing) TranslateTime() time.Duration {
	return t.Parse + t.Sema + t.Plan + t.Codegen
}

// ExecuteTime is setup plus execution: rewire, instantiate, pipelines, and
// merge barriers.
func (t Timing) ExecuteTime() time.Duration {
	return t.Rewire + t.Instantiate + t.Pipelines + t.Merge
}

// TierEvent is one entry of the adaptive tier timeline: a background
// publish of optimized code (tier-up) or the first call a function served
// from it (Switch), with the morsel count at that moment.
type TierEvent struct {
	At     time.Duration // since the trace's start
	Func   int64
	Morsel int64
	Switch bool
}

// PipelineSpan is one driven pipeline's execution span. Rows is -1 when the
// pipeline did not report its row count.
type PipelineSpan struct {
	Name    string
	Dur     time.Duration
	Rows    int64
	Workers int64
}

// QueryProfile is one query's execution profile: its Timing, the executor
// counters, and the facts the trace's events record. NewQueryProfile builds
// it in one pass over the trace; wasmdb.Stats, the query-log record, EXPLAIN
// ANALYZE, the autopilot's plan-cache feedback and the bench records are
// views of it, so every surface reports the same number for a query. The
// JSON tags are the query log's keys.
type QueryProfile struct {
	Timing

	// Executor counters (zero for the interpreting backends, whose queries
	// record none).
	MorselsLiftoff       uint64 `json:"morsels_liftoff,omitempty"`
	MorselsTurbofan      uint64 `json:"morsels_turbofan,omitempty"`
	TurbofanFailed       int    `json:"turbofan_failed,omitempty"`
	ModuleBytes          int    `json:"module_bytes,omitempty"`
	FuelUsed             int64  `json:"fuel_used,omitempty"`
	PeakMemBytes         uint64 `json:"peak_mem_bytes,omitempty"`
	Workers              int    `json:"workers,omitempty"`
	PipelinesParallel    int    `json:"pipelines_parallel,omitempty"`
	PipelinesSerial      int    `json:"pipelines_serial,omitempty"`
	GroupsMerged         int    `json:"groups_merged,omitempty"`
	JoinPartitionsMerged int    `json:"join_partitions_merged,omitempty"`
	// Rows is the result cardinality the query returned.
	Rows int `json:"rows"`
	// Tier is the final dispatch mix: "liftoff", "turbofan", "mixed" (the
	// query tiered up mid-execution), or "none" for non-compiling backends.
	Tier string `json:"tier"`

	// SerialFallback names why a parallel request ran serially.
	SerialFallback string `json:"serial_fallback,omitempty"`
	// Auto, AutoReason and AutoWorkers are the autopilot's decision for a
	// BackendAuto query (empty for manual backends).
	Auto        string `json:"auto,omitempty"`
	AutoReason  string `json:"auto_reason,omitempty"`
	AutoWorkers int    `json:"-"`
	// PlanCache is the plan-cache lookup result ("hit" | "miss"; empty when
	// no lookup ran), Fingerprint the plan fingerprint's short prefix, and
	// CachedTier the tier a hit's module dispatched from the first morsel.
	PlanCache   string `json:"plan_cache,omitempty"`
	Fingerprint string `json:"plan_fingerprint,omitempty"`
	CachedTier  string `json:"-"`
	// Tiers is the tier-up/tier-switch timeline in time order;
	// FirstSwitchMorsel is the morsel at which the first optimized-tier
	// dispatch happened (-1 when the query never left baseline code).
	Tiers             []TierEvent `json:"-"`
	FirstSwitchMorsel int64       `json:"-"`
	// PipelineSpans are the per-pipeline spans, in recorded order.
	PipelineSpans []PipelineSpan `json:"-"`
}

// NewQueryProfile reads a query's profile from its trace, taking the trace
// lock once and walking spans, events and counters once. wall is the
// query's own wall clock; an admission span on the trace precedes it, so
// Total is their sum.
func NewQueryProfile(tr *Trace, wall time.Duration) QueryProfile {
	p := QueryProfile{FirstSwitchMorsel: -1}
	if tr != nil {
		tr.mu.Lock()
		p.readSpans(tr.spans)
		p.readEvents(tr.events, tr.start)
		p.readCounters(tr.counters)
		tr.mu.Unlock()
	}
	p.Total = wall + p.Admission
	p.Other = p.Total
	for _, l := range p.Layers() {
		p.Other -= *l.Dur
	}
	return p
}

func (p *QueryProfile) readSpans(spans []Span) {
	layers := p.Layers()
	for _, sp := range spans {
		if sp.Name == SpanTurbofan {
			p.Turbofan += sp.Dur
			continue
		}
		if strings.HasPrefix(sp.Name, SpanPipeline) {
			ps := PipelineSpan{Name: strings.TrimPrefix(sp.Name, SpanPipeline), Dur: sp.Dur, Rows: -1}
			if rows, ok := arg(sp.Args, "rows"); ok {
				ps.Rows = rows.Val
			}
			workers, _ := arg(sp.Args, "workers")
			ps.Workers = workers.Val
			p.PipelineSpans = append(p.PipelineSpans, ps)
			continue
		}
		for _, l := range layers {
			if l.Span == sp.Name {
				*l.Dur += sp.Dur
				break
			}
		}
	}
	// Merge barriers run inside the execute span; take them out so the
	// layers stay disjoint.
	p.Pipelines -= p.Merge
}

func (p *QueryProfile) readEvents(events []Event, start time.Time) {
	for _, ev := range events {
		switch ev.Name {
		case EvTierUp, EvTierSwitch:
			te := TierEvent{At: ev.Time.Sub(start), Switch: ev.Name == EvTierSwitch}
			fn, _ := arg(ev.Args, "func")
			morsel, _ := arg(ev.Args, "morsel")
			te.Func, te.Morsel = fn.Val, morsel.Val
			p.Tiers = append(p.Tiers, te)
		case EvSerialFallback:
			reason, _ := arg(ev.Args, "reason")
			p.SerialFallback = reason.Str
		case EvAutopilot:
			choice, _ := arg(ev.Args, "choice")
			reason, _ := arg(ev.Args, "reason")
			workers, _ := arg(ev.Args, "workers")
			p.Auto, p.AutoReason, p.AutoWorkers = choice.Str, reason.Str, int(workers.Val)
		case EvPlanCache:
			result, _ := arg(ev.Args, "result")
			fp, _ := arg(ev.Args, "fingerprint")
			tier, _ := arg(ev.Args, "tier")
			p.PlanCache, p.Fingerprint, p.CachedTier = result.Str, fp.Str, tier.Str
		}
	}
	slices.SortStableFunc(p.Tiers, func(a, b TierEvent) int { return cmp.Compare(a.At, b.At) })
	for _, te := range p.Tiers {
		if te.Switch {
			p.FirstSwitchMorsel = te.Morsel
			break
		}
	}
}

func (p *QueryProfile) readCounters(c map[string]int64) {
	p.MorselsLiftoff = uint64(c[CtrMorselsLiftoff])
	p.MorselsTurbofan = uint64(c[CtrMorselsTurbofan])
	p.TurbofanFailed = int(c[CtrTurbofanFailed])
	p.ModuleBytes = int(c[CtrModuleBytes])
	p.FuelUsed = c[CtrFuelUsed]
	p.PeakMemBytes = uint64(c[CtrPeakMemBytes])
	p.Workers = int(c[CtrWorkers])
	p.PipelinesParallel = int(c[CtrPipelinesParallel])
	p.PipelinesSerial = int(c[CtrPipelinesSerial])
	p.GroupsMerged = int(c[CtrGroupsMerged])
	p.JoinPartitionsMerged = int(c[CtrJoinPartitionsMerged])
	p.Rows = int(c[CtrResultRows])
	switch lo, tf := p.MorselsLiftoff > 0, p.MorselsTurbofan > 0; {
	case lo && tf:
		p.Tier = "mixed"
	case tf:
		p.Tier = "turbofan"
	case lo:
		p.Tier = "liftoff"
	default:
		p.Tier = "none"
	}
}

// arg finds the annotation named key.
func arg(args []Arg, key string) (Arg, bool) {
	for _, a := range args {
		if a.Key == key {
			return a, true
		}
	}
	return Arg{}, false
}
