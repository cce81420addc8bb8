package explore

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ReportSchema versions the JSON report layout.
const ReportSchema = "segbus/explore-report/v1"

// jsonReport is the deterministic JSON shape: the space, the
// counters and the front's points. Per-candidate outcomes are not in
// it (Result.Points is not serialised). No wall-clock fields — the
// report is byte-identical across worker counts and machines.
type jsonReport struct {
	Schema string `json:"schema"`
	Result
	FrontPoints []Point `json:"front"`
}

// JSON renders the result as indented deterministic JSON.
func (r *Result) JSON() ([]byte, error) {
	rep := jsonReport{Schema: ReportSchema, Result: *r, FrontPoints: r.FrontPoints()}
	return json.MarshalIndent(rep, "", "  ")
}

// Summary renders the run's headline numbers as fixed-width text.
func (r *Result) Summary() string {
	var b strings.Builder
	b.WriteString(r.Space.String())
	fmt.Fprintf(&b, "  generated %d  pruned %d (%.1f%%)  emulated %d",
		r.Generated, r.Pruned, 100*r.PruningRatio, r.Emulated)
	if r.Errors > 0 {
		fmt.Fprintf(&b, "  errors %d", r.Errors)
	}
	fmt.Fprintf(&b, "  waves %d\n", r.Waves)
	fmt.Fprintf(&b, "  Pareto front: %d points\n", len(r.Front))
	return b.String()
}

// FrontTable renders the Pareto front as fixed-width text, one point
// per line in (ExecPs, TotalPJ) order.
func (r *Result) FrontTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-12s %-8s %-6s %-6s %14s %14s %12s\n",
		"seg", "mapping", "pkg", "hdr", "cahop", "exec (us)", "energy (nJ)", "power (mW)")
	for _, i := range r.Front {
		p := &r.Points[i]
		fmt.Fprintf(&b, "%-4d %-12s %-8d %-6d %-6d %14.3f %14.3f %12.3f\n",
			p.Segments, p.Mapping, p.PackageSize, p.HeaderTicks, p.CAHopTicks,
			float64(p.ExecPs)/1e6, p.TotalPJ/1e3, p.AvgPowerMW)
	}
	return b.String()
}

// CSV renders the Pareto front as CSV.
func (r *Result) CSV() string {
	var b strings.Builder
	b.WriteString("segments,mapping,package_size,header_ticks,ca_hop_ticks,exec_us,energy_nj,avg_power_mw\n")
	for _, i := range r.Front {
		p := &r.Points[i]
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%.3f,%.3f,%.3f\n",
			p.Segments, p.Mapping, p.PackageSize, p.HeaderTicks, p.CAHopTicks,
			float64(p.ExecPs)/1e6, p.TotalPJ/1e3, p.AvgPowerMW)
	}
	return b.String()
}

// TimingSummary renders the run's per-stage busy-time totals, summed
// over workers, so a stage can exceed the process's wall time. This
// is the nondeterministic half of a run's story and belongs on
// stderr, never in the deterministic report.
func (r *Result) TimingSummary() string {
	return fmt.Sprintf("stage busy time (summed over workers): enumerate %.1fms, bounds %.1fms, emulate %.1fms, power %.1fms\n",
		float64(r.Timing.Enumerate)/1e6, float64(r.Timing.Bounds)/1e6, float64(r.Timing.Emulate)/1e6, float64(r.Timing.Power)/1e6)
}
