package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"segbus/internal/apps"
	"segbus/internal/core"
	"segbus/internal/emulator/pool"
	"segbus/internal/explore"
	"segbus/internal/psdf"
)

// exploreBench is the explore_mp3 workload: explore.Run over the
// reference MP3 space with one worker per CPU, repeated sequentially.
// The seed drives only the work-stealing victim order; results must
// not depend on it.
type exploreBench struct {
	seed  int64
	m     *psdf.Model
	space *explore.Space
	want  []byte // Result.JSON of the set-up run

	failures []string
}

func (e *exploreBench) opts() explore.Options {
	return explore.Options{Workers: runtime.NumCPU(), Seed: e.seed}
}

func (e *exploreBench) fail(format string, args ...any) {
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// setup builds the model and space and runs one warm-up exploration,
// whose report every timed repetition must reproduce.
func (e *exploreBench) setup() error {
	e.m = apps.MP3Model()
	e.space = explore.ReferenceMP3Space()
	res, err := explore.Run(e.m, e.space, e.opts())
	if err != nil {
		return err
	}
	want, err := res.JSON()
	if err != nil {
		return err
	}
	if e.want != nil && !bytes.Equal(want, e.want) {
		return fmt.Errorf("set-up exploration report differs from the previous set-up's")
	}
	e.want = want
	return nil
}

// check reports whether res reproduces the set-up report and every
// front point re-estimates through core.Estimate to the same ExecPs.
func (e *exploreBench) check(rep int, res *explore.Result) bool {
	got, err := res.JSON()
	if err != nil || !bytes.Equal(got, e.want) {
		e.fail("repetition %d: Result.JSON differs from the set-up run (%v)", rep, err)
		return false
	}
	ok := true
	for _, pt := range res.FrontPoints() {
		est, err := core.Estimate(e.m, pt.Platform, core.Options{})
		if err != nil || est.ExecutionTimePs() != pt.ExecPs {
			e.fail("repetition %d: front point %d re-estimates differently (%v)", rep, pt.Index, err)
			ok = false
		}
	}
	return ok
}

// timed repeats the exploration until d has passed, at least once,
// returning each repetition's wall time in ns and how many failed. A
// collection before each repetition, outside its timing, keeps the
// previous repetition's garbage out of the next one's time and memory.
func (e *exploreBench) timed(d time.Duration) (walls []int64, elapsed time.Duration, failed int, err error) {
	deadline := time.Now().Add(d)
	var busy time.Duration
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		runtime.GC()
		t0 := time.Now()
		res, err := explore.Run(e.m, e.space, e.opts())
		wall := time.Since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		walls = append(walls, wall.Nanoseconds())
		busy += wall
		if !e.check(rep, res) {
			failed++
		}
	}
	return walls, busy, failed, nil
}

// traced measures the explorer's layers from outside: Space.Enumerate
// timed around the call, explore.Run's own busy-time and counters, and
// a replay of every emulated candidate through the machine pool and
// core.EstimateOn, as the explorer's emulate stage runs them.
func (e *exploreBench) traced(d time.Duration) (map[string]float64, int, int, error) {
	deadline := time.Now().Add(d)
	var enum []float64
	for len(enum) < 5 {
		t0 := time.Now()
		cands, err := e.space.Enumerate(e.m)
		enum = append(enum, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return nil, 0, 0, err
		}
		if len(cands) == 0 {
			return nil, 0, 0, fmt.Errorf("empty space")
		}
	}
	var bounds, emul, pow []float64
	var last *explore.Result
	attempted, failed := 0, 0
	for rep := 0; rep < 2 || (rep < 20 && time.Now().Before(deadline)); rep++ {
		res, err := explore.Run(e.m, e.space, e.opts())
		if err != nil {
			return nil, 0, 0, err
		}
		attempted++
		if !e.check(rep, res) {
			failed++
		}
		bounds = append(bounds, float64(res.Timing.Bounds)/1e6)
		emul = append(emul, float64(res.Timing.Emulate)/1e6)
		pow = append(pow, float64(res.Timing.Power)/1e6)
		last = res
	}

	// Pooled emulation of every emulated candidate, one at a time.
	machines := pool.New(pool.Options{PerKey: pool.DefaultPerKey, MaxShapes: pool.DefaultMaxShapes})
	var getUs, runUs, steps, nsPerStep, allocs []float64
	gets, warm := 0, 0
	for _, pt := range last.Points {
		if !pt.Emulated {
			continue
		}
		t0 := time.Now()
		shape := pool.ShapeKey(e.m, pt.Platform)
		mc, w := machines.Get(shape)
		getUs = append(getUs, float64(time.Since(t0).Nanoseconds())/1e3)
		gets++
		if w {
			warm++
		}
		t0 = time.Now()
		est, err := core.EstimateOn(mc, e.m, pt.Platform, core.Options{})
		run := time.Since(t0).Nanoseconds()
		if err != nil {
			return nil, 0, 0, err
		}
		runUs = append(runUs, float64(run)/1e3)
		steps = append(steps, float64(est.Report.Steps))
		nsPerStep = append(nsPerStep, float64(run)/float64(est.Report.Steps))
		machines.Put(shape, mc)
		attempted++
		if est.ExecutionTimePs() != pt.ExecPs {
			failed++
			e.fail("candidate %d: pooled re-estimate differs from the explorer's", pt.Index)
		}
		mc, _ = machines.Get(shape)
		a0 := mallocs()
		_, err = core.EstimateOn(mc, e.m, pt.Platform, core.Options{})
		a1 := mallocs()
		machines.Put(shape, mc)
		if err != nil {
			return nil, 0, 0, err
		}
		allocs = append(allocs, float64(a1-a0))
	}

	b, em, p := median(bounds), median(emul), median(pow)
	out := map[string]float64{
		"explore.enumerate_ms":     median(enum),
		"explore.bounds_ms":        b,
		"explore.emulate_ms":       em,
		"explore.power_ms":         p,
		"explore.generated":        float64(last.Generated),
		"explore.pruned":           float64(last.Pruned),
		"explore.emulated":         float64(last.Emulated),
		"explore.pruning_ratio":    last.PruningRatio,
		"explore.prune_cost_ratio": ratio(b, float64(last.Pruned)*ratio(em, float64(last.Emulated))),
		"pool.get_us":              median(getUs),
		"pool.warm_ratio":          ratio(float64(warm), float64(gets)),
		"emulator.run_us":          median(runUs),
		"emulator.steps":           median(steps),
		"emulator.ns_per_step":     median(nsPerStep),
		"emulator.allocs":          median(allocs),
	}
	return out, attempted, failed, nil
}
