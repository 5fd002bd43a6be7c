package wasmdb

import (
	"fmt"
	"strings"
	"time"
)

// ExplainAnalyze executes the query and returns the physical plan annotated
// with its QueryProfile: the disjoint per-layer timings with their total and
// the uncovered remainder, per-pipeline execution times, the adaptive
// tier-switch timeline (which function was upgraded at which morsel), and
// the resource counters. Options apply as in Query.
func (db *DB) ExplainAnalyze(src string, opts ...Option) (string, error) {
	planText, err := db.Explain(src)
	if err != nil {
		return "", err
	}
	res, err := db.Query(src, append(opts[:len(opts):len(opts)], WithTrace(NewTrace()))...)
	if err != nil {
		return "", err
	}
	return renderAnalyze(planText, res.Stats.Backend, &res.Stats.QueryProfile), nil
}

func renderAnalyze(planText string, backend Backend, p *QueryProfile) string {
	var sb strings.Builder
	sb.WriteString(strings.TrimRight(planText, "\n"))
	sb.WriteString("\n\nphases:\n")
	for _, l := range p.Layers() {
		if *l.Dur > 0 {
			fmt.Fprintf(&sb, "  %-18s %s\n", l.Name, fmtAnalyzeDur(*l.Dur))
		}
	}
	fmt.Fprintf(&sb, "  %-18s %s\n", "total", fmtAnalyzeDur(p.Total))
	fmt.Fprintf(&sb, "  %-18s %s\n", "other", fmtAnalyzeDur(p.Other))
	if p.Turbofan > 0 {
		fmt.Fprintf(&sb, "  %-18s %s (background, not in total)\n", "turbofan compile", fmtAnalyzeDur(p.Turbofan))
	}

	// Per-pipeline execution breakdown, in recorded order.
	if len(p.PipelineSpans) > 0 {
		sb.WriteString("\npipelines:\n")
		for _, ps := range p.PipelineSpans {
			par := ""
			if ps.Workers > 1 {
				par = fmt.Sprintf("  [%d workers]", ps.Workers)
			}
			if ps.Rows >= 0 {
				fmt.Fprintf(&sb, "  %-18s %-10s %d rows%s\n", ps.Name, fmtAnalyzeDur(ps.Dur), ps.Rows, par)
			} else {
				fmt.Fprintf(&sb, "  %-18s %s%s\n", ps.Name, fmtAnalyzeDur(ps.Dur), par)
			}
		}
	}

	// Tier timeline: background publishes (tier-up) and first optimized
	// dispatches (tier-switch), ordered by time.
	if len(p.Tiers) > 0 {
		sb.WriteString("\ntier timeline:\n")
		for _, te := range p.Tiers {
			verb := "optimized code published"
			if te.Switch {
				verb = "first optimized call"
			}
			fmt.Fprintf(&sb, "  +%-9s func %-3d %s (at morsel %d)\n", fmtAnalyzeDur(te.At), te.Func, verb, te.Morsel)
		}
	}

	sb.WriteString("\ntotals:\n")
	fmt.Fprintf(&sb, "  backend            %s\n", backend)
	// The autopilot's routing decision, when the query ran with backend auto.
	if p.Auto != "" {
		fmt.Fprintf(&sb, "  auto               %s, %d worker(s) — %s\n", p.Auto, p.AutoWorkers, p.AutoReason)
	}
	fmt.Fprintf(&sb, "  rows               %d\n", p.Rows)
	fmt.Fprintf(&sb, "  morsels            %d liftoff / %d turbofan\n", p.MorselsLiftoff, p.MorselsTurbofan)
	if p.ModuleBytes > 0 {
		fmt.Fprintf(&sb, "  module             %d bytes\n", p.ModuleBytes)
	}
	if p.TurbofanFailed > 0 {
		fmt.Fprintf(&sb, "  turbofan failures  %d\n", p.TurbofanFailed)
	}
	if p.FuelUsed > 0 {
		fmt.Fprintf(&sb, "  fuel used          %d\n", p.FuelUsed)
	}
	if p.PeakMemBytes > 0 {
		fmt.Fprintf(&sb, "  peak memory        %d KiB\n", p.PeakMemBytes/1024)
	}
	if p.Workers > 1 {
		fmt.Fprintf(&sb, "  workers            %d (%d pipelines parallel, %d serial)\n",
			p.Workers, p.PipelinesParallel, p.PipelinesSerial)
	}
	if p.GroupsMerged > 0 {
		fmt.Fprintf(&sb, "  groups merged      %d\n", p.GroupsMerged)
	}
	if p.JoinPartitionsMerged > 0 {
		fmt.Fprintf(&sb, "  join partitions    %d merged\n", p.JoinPartitionsMerged)
	}
	// Plan-cache outcome: whether this execution reused a cached module, and
	// which tier the module dispatched from the first morsel on.
	switch p.PlanCache {
	case "hit":
		fmt.Fprintf(&sb, "  plan cache         hit (fingerprint=%s, tier=%s)\n", p.Fingerprint, p.CachedTier)
	case "miss":
		fmt.Fprintf(&sb, "  plan cache         miss (fingerprint=%s)\n", p.Fingerprint)
	}
	// A query that requested parallelism but could not use it says why.
	if p.SerialFallback != "" {
		fmt.Fprintf(&sb, "  serial fallback    %s\n", p.SerialFallback)
	}
	return sb.String()
}

func fmtAnalyzeDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}
