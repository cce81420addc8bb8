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
	"runtime"
	"strings"
	"sync/atomic"

	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
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
	// parallel.StealOptions.Seed); the curve itself is schedule
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

// run evaluates the variants concurrently, one parallel.StealRun task
// per point writing its own slot of the curve, each emulating through
// pool.Run: every variant of one curve shares a platform shape, so
// after the first sample each worker's emulations run on a warm arena,
// and a straggler (small package sizes cost the most) no longer
// serialises the tail. A failing or panicking sample carries its own
// error; the others still run.
func run(m *psdf.Model, variants []*platform.Platform, values []int64, param string, o Options) Curve {
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	machines := pool.New(pool.Options{PerKey: workers})
	c := Curve{Param: param, Points: make([]Point, len(values))}
	var done, failed atomic.Int64
	parallel.StealRun(len(variants), parallel.StealOptions{Workers: workers, Seed: o.Seed}, func(i int) {
		pt := &c.Points[i]
		pt.Value = values[i]
		rep, err := machines.Run(m, variants[i], emulator.Config{})
		if err != nil {
			pt.Err = err
			failed.Add(1)
		} else {
			pt.ExecPs = int64(rep.ExecutionTimePs)
		}
		o.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
	})
	o.Heartbeat.Final(len(c.Points), int(failed.Load()))
	return c
}

// vary clones base once per value, applies set to each clone and runs
// the clones as the curve of param.
func vary[T int | platform.Hz](m *psdf.Model, base *platform.Platform, vals []T, param string, set func(*platform.Platform, T), o Options) Curve {
	variants := make([]*platform.Platform, len(vals))
	values := make([]int64, len(vals))
	for i, v := range vals {
		variants[i] = base.Clone()
		set(variants[i], v)
		values[i] = int64(v)
	}
	return run(m, variants, values, param, o)
}

// PackageSizes sweeps the platform package size.
func PackageSizes(m *psdf.Model, base *platform.Platform, sizes []int, opts ...Options) Curve {
	return vary(m, base, sizes, "packageSize", func(p *platform.Platform, s int) { p.PackageSize = s }, first(opts))
}

// HeaderTicks sweeps the per-package protocol overhead.
func HeaderTicks(m *psdf.Model, base *platform.Platform, ticks []int, opts ...Options) Curve {
	return vary(m, base, ticks, "headerTicks", func(p *platform.Platform, h int) { p.HeaderTicks = h }, first(opts))
}

// CAHopTicks sweeps the central arbiter's chain set-up cost.
func CAHopTicks(m *psdf.Model, base *platform.Platform, ticks []int, opts ...Options) Curve {
	return vary(m, base, ticks, "caHopTicks", func(p *platform.Platform, h int) { p.CAHopTicks = h }, first(opts))
}

// SegmentClock sweeps one segment's clock frequency (1-based index).
func SegmentClock(m *psdf.Model, base *platform.Platform, segment int, clocks []platform.Hz, opts ...Options) (Curve, error) {
	if base.Segment(segment) == nil {
		return Curve{}, fmt.Errorf("sweep: no segment %d", segment)
	}
	return vary(m, base, clocks, fmt.Sprintf("segment%dClockHz", segment),
		func(p *platform.Platform, hz platform.Hz) { p.Segment(segment).Clock = hz }, first(opts)), nil
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
