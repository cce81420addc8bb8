// Package sweep runs one-parameter sensitivity analyses over a
// (model, configuration) pair: how does the estimated execution time
// react to the package size, the protocol's per-package header cost,
// the CA's chain set-up cost, or one clock frequency?
//
// The paper's discussion reasons qualitatively about exactly these
// levers ("the higher the data package, the less impact of these
// figures"); this package turns the reasoning into measured curves a
// designer can read off, each point produced by a full emulation,
// evaluated concurrently.
package sweep

import (
	"fmt"
	"strings"
	"sync/atomic"

	"segbus/internal/obs"
	"segbus/internal/parallel"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// Point is one sample of a sensitivity curve.
type Point struct {
	Value  int64 // the parameter value of this sample
	ExecPs int64 // estimated execution time
	Err    error // non-nil if this sample failed (others still run)
}

// Curve is a named series of points.
type Curve struct {
	Param  string
	Points []Point
}

// Options tunes a sweep evaluation. The sweep functions take it
// variadically so existing call sites stay unchanged.
type Options struct {
	// Heartbeat, when non-nil, receives a progress tick after every
	// completed sample (from worker goroutines — Heartbeat.Tick is
	// concurrency-safe) and the unconditional final line.
	Heartbeat *obs.Heartbeat

	// Workers is the number of concurrent samples; zero selects
	// GOMAXPROCS.
	Workers int

	// Seed drives the work-stealing schedule (see
	// parallel.Options.Seed); the curve itself is schedule
	// independent.
	Seed int64
}

// first collapses the variadic options to one value.
func first(opts []Options) Options {
	if len(opts) > 0 {
		return opts[0]
	}
	return Options{}
}

// run evaluates the variants concurrently in submission order, on the
// work-stealing scheduler with pooled machines: every variant of one
// curve shares a platform shape, so after the first sample each
// worker's emulations run on a warm arena, and a straggler (small
// package sizes cost the most) no longer serialises the tail.
func run(m *psdf.Model, variants []*platform.Platform, values []int64, param string, o Options) Curve {
	jobs := make([]parallel.Job, len(variants))
	for i, p := range variants {
		jobs[i] = parallel.Job{Label: fmt.Sprintf("%s=%d", param, values[i]), Model: m, Platform: p}
	}
	popts := parallel.Options{Workers: o.Workers, Seed: o.Seed}
	if o.Heartbeat != nil {
		var done, failed atomic.Int64
		popts.Progress = func(r parallel.Result) {
			if r.Err != nil {
				failed.Add(1)
			}
			o.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
		}
	}
	results := parallel.Run(jobs, popts)
	c := Curve{Param: param, Points: make([]Point, len(values))}
	failures := 0
	for i, r := range results {
		c.Points[i] = Point{Value: values[i], Err: r.Err}
		if r.Err == nil {
			c.Points[i].ExecPs = int64(r.Report.ExecutionTimePs)
		} else {
			failures++
		}
	}
	o.Heartbeat.Final(len(results), failures)
	return c
}

// PackageSizes sweeps the platform package size.
func PackageSizes(m *psdf.Model, base *platform.Platform, sizes []int, opts ...Options) Curve {
	variants := make([]*platform.Platform, len(sizes))
	values := make([]int64, len(sizes))
	for i, s := range sizes {
		p := base.Clone()
		p.PackageSize = s
		variants[i] = p
		values[i] = int64(s)
	}
	return run(m, variants, values, "packageSize", first(opts))
}

// HeaderTicks sweeps the per-package protocol overhead.
func HeaderTicks(m *psdf.Model, base *platform.Platform, ticks []int, opts ...Options) Curve {
	variants := make([]*platform.Platform, len(ticks))
	values := make([]int64, len(ticks))
	for i, h := range ticks {
		p := base.Clone()
		p.HeaderTicks = h
		variants[i] = p
		values[i] = int64(h)
	}
	return run(m, variants, values, "headerTicks", first(opts))
}

// CAHopTicks sweeps the central arbiter's chain set-up cost.
func CAHopTicks(m *psdf.Model, base *platform.Platform, ticks []int, opts ...Options) Curve {
	variants := make([]*platform.Platform, len(ticks))
	values := make([]int64, len(ticks))
	for i, h := range ticks {
		p := base.Clone()
		p.CAHopTicks = h
		variants[i] = p
		values[i] = int64(h)
	}
	return run(m, variants, values, "caHopTicks", first(opts))
}

// SegmentClock sweeps one segment's clock frequency (1-based index).
func SegmentClock(m *psdf.Model, base *platform.Platform, segment int, clocks []platform.Hz, opts ...Options) (Curve, error) {
	if base.Segment(segment) == nil {
		return Curve{}, fmt.Errorf("sweep: no segment %d", segment)
	}
	variants := make([]*platform.Platform, len(clocks))
	values := make([]int64, len(clocks))
	for i, hz := range clocks {
		p := base.Clone()
		p.Segment(segment).Clock = hz
		variants[i] = p
		values[i] = int64(hz)
	}
	return run(m, variants, values, fmt.Sprintf("segment%dClockHz", segment), first(opts)), nil
}

// CSV renders the curve as two-column CSV (value, exec_us); failed
// points render an empty second column.
func (c Curve) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,exec_us\n", c.Param)
	for _, pt := range c.Points {
		if pt.Err != nil {
			fmt.Fprintf(&b, "%d,\n", pt.Value)
			continue
		}
		fmt.Fprintf(&b, "%d,%.3f\n", pt.Value, float64(pt.ExecPs)/1e6)
	}
	return b.String()
}

// Table renders the curve as fixed-width text.
func (c Curve) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s\n", c.Param, "exec (us)")
	for _, pt := range c.Points {
		if pt.Err != nil {
			fmt.Fprintf(&b, "%-18d %12s\n", pt.Value, "error")
			continue
		}
		fmt.Fprintf(&b, "%-18d %12.2f\n", pt.Value, float64(pt.ExecPs)/1e6)
	}
	return b.String()
}
