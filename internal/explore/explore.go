package explore

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"segbus/internal/analyze"
	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/obs"
	"segbus/internal/parallel"
	"segbus/internal/power"
	"segbus/internal/psdf"
)

// DefaultWaveSize is the number of candidates emulated between prune
// passes. It is a fixed constant — deliberately NOT derived from the
// worker count — so the prune/emulate split of a run is a pure
// function of the space, and the obs counters (and with them the
// whole report) stay byte-identical across -workers values.
const DefaultWaveSize = 32

// Options tunes an explorer run.
type Options struct {
	// Workers is the number of concurrent bounds/emulation tasks;
	// zero selects GOMAXPROCS. Changes wall-clock only, never output.
	Workers int

	// Seed drives the work-stealing victim order (schedule
	// reproducibility for profiling; results are schedule
	// independent). Zero selects 1.
	Seed int64

	// WaveSize overrides DefaultWaveSize; <= 0 selects the default.
	WaveSize int

	// NoPrune disables bounds pruning: every candidate is emulated.
	// The soundness tests diff pruned runs against this mode.
	NoPrune bool

	// Registry, when non-nil, receives the obs.ExploreMetrics
	// catalogue.
	Registry *obs.Registry

	// Heartbeat, when non-nil, ticks after every emulated candidate.
	Heartbeat *obs.Heartbeat
}

// StageNs is a run's busy nanoseconds per pipeline stage, summed over
// the tasks of the stage and so over workers: with several workers a
// stage can exceed the run's wall time. Wall-clock is inherently
// nondeterministic, so stage timings are excluded from every
// deterministic output path (JSON report, tables); they surface
// through volatile gauges and the CLI's -timings stderr dump.
type StageNs struct {
	// Enumerate is the placement solves plus the group platform
	// builds.
	Enumerate int64 `json:"-"`
	Bounds    int64 `json:"-"`
	Emulate   int64 `json:"-"`
	Power     int64 `json:"-"`
}

// Point is one candidate's full record: analytic bounds (always
// computed), and either a prune verdict or emulation results.
type Point struct {
	Candidate

	// Analytic bounds.
	LowerPs    int64   `json:"lowerPs"`
	UpperPs    int64   `json:"upperPs"`
	EnergyLBPJ float64 `json:"energyLbPj"`

	// Outcome. Exactly one of Pruned / Emulated / Error holds.
	Pruned   bool `json:"pruned,omitempty"`
	Emulated bool `json:"emulated,omitempty"`

	// Emulation results (Emulated only).
	ExecPs     int64   `json:"execPs,omitempty"`
	TotalPJ    float64 `json:"totalPj,omitempty"`
	AvgPowerMW float64 `json:"avgPowerMw,omitempty"`

	Err   error  `json:"-"`
	Error string `json:"error,omitempty"`
}

// Result is one explorer run. Points holds every candidate in
// enumeration order; Front holds the indices of the Pareto-optimal
// emulated points, sorted by (ExecPs, TotalPJ, Index).
type Result struct {
	Space  Space   `json:"space"`
	Points []Point `json:"-"`
	Front  []int   `json:"-"`

	Generated int `json:"generated"`
	Pruned    int `json:"pruned"`
	Emulated  int `json:"emulated"`
	Errors    int `json:"errors,omitempty"`
	Waves     int `json:"waves"`

	// PruningRatio = Pruned/Generated.
	PruningRatio float64 `json:"pruningRatio"`

	Timing StageNs `json:"-"`
}

// FrontPoints returns copies of the front's points in front order.
func (r *Result) FrontPoints() []Point {
	out := make([]Point, len(r.Front))
	for i, idx := range r.Front {
		out[i] = r.Points[idx]
	}
	return out
}

// archive is the prune oracle: the Pareto front of the emulated
// points so far, sorted by ExecPs ascending with a running prefix
// minimum of TotalPJ. dominatedLB answers "does any emulated point
// strictly beat these lower bounds on BOTH objectives" in O(log n).
type archive struct {
	execPs []int64
	minPJ  []float64 // minPJ[i] = min TotalPJ over execPs[0..i]
}

func (a *archive) rebuild(points []Point, emulated []int) {
	a.execPs = a.execPs[:0]
	a.minPJ = a.minPJ[:0]
	idx := append([]int(nil), emulated...)
	sort.Slice(idx, func(i, j int) bool { return points[idx[i]].ExecPs < points[idx[j]].ExecPs })
	for _, i := range idx {
		a.execPs = append(a.execPs, points[i].ExecPs)
		pj := points[i].TotalPJ
		if n := len(a.minPJ); n > 0 && a.minPJ[n-1] < pj {
			pj = a.minPJ[n-1]
		}
		a.minPJ = append(a.minPJ, pj)
	}
}

// dominatedLB reports whether some emulated point has ExecPs < lbPs
// AND TotalPJ < lbPJ. Strict on both: a candidate that could tie the
// front on either objective is never pruned, which is what makes the
// pruned front provably identical to the exhaustive one.
func (a *archive) dominatedLB(lbPs int64, lbPJ float64) bool {
	// First index with execPs >= lbPs; everything before is strictly
	// faster than the candidate can ever be.
	i := sort.Search(len(a.execPs), func(k int) bool { return a.execPs[k] >= lbPs })
	if i == 0 {
		return false
	}
	return a.minPJ[i-1] < lbPJ
}

// Run explores the space over the model.
//
// Pipeline: enumerate (one parallel task per (segments, mapping)
// pair: its placement solve and its groups' platforms) → bounds (one
// parallel task per group of candidates that differ only in their
// tick axes: the task fills in the members' candidates and prices
// them) → waves of prune-then-emulate. Candidates are emulated in
// ascending latency lower bound (ties: energy bound, then index) so
// the points most likely to dominate others go first; at each wave
// boundary every not-yet-emulated candidate whose (latency LB, energy
// LB) pair is strictly dominated by an emulated point on both
// objectives is discarded unemulated, and the next wave is the
// WaveSize first survivors in that order, selected with a bounded
// heap rather than by sorting the whole space (nextWave). No
// per-candidate work runs on Run's own goroutine outside those
// passes.
//
// Soundness: analyze guarantees LowerPs ≤ actual ExecPs (the bounds
// chain the conform oracles pin — the documented scheduling anomaly
// concerns the refined model beating the *estimate*, not the bound)
// and arbiter-tick bounds no larger than the emulated SA and CA TCTs;
// power.Profile.LowerBoundPJ, priced at those bounds, is ≤ actual
// TotalPJ down to the last ULP. So if an emulated point e is strictly
// better than a candidate's bounds on both objectives, it is strictly
// better than the candidate's true values too, and the candidate can
// neither enter the Pareto front nor displace anything from it. Pruning
// therefore never changes the front — the property test diffs pruned
// vs exhaustive fronts across hundreds of generated spaces.
//
// Determinism: prune decisions happen only at wave boundaries against
// the archive of completed emulations, wave composition follows the
// fixed candidate order (rank) with a fixed WaveSize, and every
// emulation is a sealed deterministic simulation merged by candidate
// index. The worker count and steal seed change only the schedule
// inside a wave, so Points, Front and all counters are byte-identical
// across -workers values.
func Run(m *psdf.Model, space *Space, opts Options) (*Result, error) {
	sp, err := space.withDefaults()
	if err != nil {
		return nil, err
	}
	waveSize := opts.WaveSize
	if waveSize <= 0 {
		waveSize = DefaultWaveSize
	}
	// One resolved worker count sizes both the scheduler and the
	// machine pool, so every worker's machine survives between waves.
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	steal := parallel.StealOptions{Workers: workers, Seed: opts.Seed}

	// Stage 0: one placement solve per (segments, mapping) pair and
	// one platform per group, in parallel.
	groups, enumerateNs, err := sp.groups(m, steal)
	if err != nil {
		return nil, err
	}
	groupSize := sp.groupSize()
	n := len(groups) * groupSize
	metrics := obs.NewExploreMetrics(opts.Registry)
	metrics.Generated.Add(int64(n))

	q, err := analyze.NewBoundsQuery(m)
	if err != nil {
		return nil, err
	}

	res := &Result{Space: sp, Generated: n, Points: make([]Point, n)}

	// Stage 1: analytic bounds, priced once per group of candidates
	// that differ only in their tick axes. Each group task writes its
	// members' candidates in place, in enumeration order, then prices
	// them: withDefaults rejects negative ticks, so one validation,
	// one coefficient pass and one power profile (neither reads the
	// tick fields) serve the whole group, and each member then costs
	// one At. power.Params{} selects power.DefaultParams, here and in
	// the estimate below: pruning and estimation price with the same
	// coefficients.
	var boundsNs atomic.Int64
	parallel.StealRun(len(groups), steal, func(g int) {
		start := time.Now()
		gr := &groups[g]
		var pf *power.Profile
		ab, err := q.Affine(gr.plat)
		if err != nil {
			err = fmt.Errorf("bounds: %w", err)
		} else if pf, err = power.NewProfile(m, gr.plat, power.Params{}); err != nil {
			err = fmt.Errorf("power profile: %w", err)
		}
		// One slot per segment for the SA tick bounds, reused by
		// every member of the group.
		saTicks := make([]int64, len(gr.plat.Segments))
		for k := 0; k < groupSize; k++ {
			i := g*groupSize + k
			pt := &res.Points[i]
			pt.Candidate = sp.member(gr, i, k)
			if err != nil {
				pt.Err = err
				continue
			}
			var caTicks int64
			pt.LowerPs, pt.UpperPs, caTicks = ab.At(pt.HeaderTicks, pt.CAHopTicks, saTicks)
			pt.EnergyLBPJ = pf.LowerBoundPJ(pt.LowerPs, saTicks, caTicks)
		}
		boundsNs.Add(time.Since(start).Nanoseconds())
	})

	remaining := make([]int, 0, n)
	for i := range res.Points {
		if res.Points[i].Err == nil {
			remaining = append(remaining, i)
		}
	}

	// Stage 2: waves of prune-then-emulate on pooled machines.
	machines := pool.New(pool.Options{PerKey: workers})
	var emulateNs, powerNs atomic.Int64
	var emulatedIdx []int
	var arch archive
	waveBuf := make([]int, 0, waveSize)
	var done, failed atomic.Int64
	for len(remaining) > 0 {
		res.Waves++
		if !opts.NoPrune {
			keep := remaining[:0]
			for _, i := range remaining {
				pt := &res.Points[i]
				if arch.dominatedLB(pt.LowerPs, pt.EnergyLBPJ) {
					pt.Pruned = true
					continue
				}
				keep = append(keep, i)
			}
			remaining = keep
			if len(remaining) == 0 {
				break
			}
		}
		var wave []int
		wave, remaining = nextWave(res.Points, remaining, waveSize, waveBuf)

		parallel.StealRun(len(wave), steal, func(k int) {
			i := wave[k]
			pt := &res.Points[i]
			start := time.Now()
			// The candidate's own platform, built only now that it is
			// emulated: the group's with its label and tick values.
			plat := pt.group.Clone()
			plat.Name, plat.HeaderTicks, plat.CAHopTicks = pt.Label, pt.HeaderTicks, pt.CAHopTicks
			report, err := machines.Run(m, plat, emulator.Config{})
			emulateNs.Add(time.Since(start).Nanoseconds())
			if err != nil {
				pt.Err = fmt.Errorf("emulate: %w", err)
				failed.Add(1)
				opts.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
				return
			}
			start = time.Now()
			est, err := power.Estimate(m, plat, report, power.Params{})
			powerNs.Add(time.Since(start).Nanoseconds())
			if err != nil {
				pt.Err = fmt.Errorf("power: %w", err)
				failed.Add(1)
				opts.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
				return
			}
			pt.Emulated = true
			pt.Platform = plat
			pt.ExecPs = int64(report.ExecutionTimePs)
			pt.TotalPJ = est.TotalPJ
			pt.AvgPowerMW = est.AvgPowerM
			opts.Heartbeat.Tick(int(done.Add(1)), int(failed.Load()))
		})
		// Merge in wave order (each slot was written once), then
		// refresh the prune oracle.
		for _, i := range wave {
			if res.Points[i].Emulated {
				emulatedIdx = append(emulatedIdx, i)
			}
		}
		arch.rebuild(res.Points, emulatedIdx)
	}

	// Final tallies and the Pareto front of the emulated points.
	for i := range res.Points {
		pt := &res.Points[i]
		switch {
		case pt.Err != nil:
			pt.Error = pt.Err.Error()
			res.Errors++
		case pt.Pruned:
			res.Pruned++
		case pt.Emulated:
			res.Emulated++
		}
	}
	res.Front = paretoFront(res.Points, emulatedIdx)
	if res.Generated > 0 {
		res.PruningRatio = float64(res.Pruned) / float64(res.Generated)
	}
	res.Timing = StageNs{Enumerate: enumerateNs, Bounds: boundsNs.Load(), Emulate: emulateNs.Load(), Power: powerNs.Load()}

	metrics.Pruned.Add(int64(res.Pruned))
	metrics.Emulated.Add(int64(res.Emulated))
	metrics.Errors.Add(int64(res.Errors))
	metrics.Waves.Add(int64(res.Waves))
	metrics.FrontSize.Set(float64(len(res.Front)))
	metrics.PruningRatio.Set(res.PruningRatio)
	metrics.StageEnumerate.Set(float64(res.Timing.Enumerate))
	metrics.StageBounds.Set(float64(res.Timing.Bounds))
	metrics.StageEmulate.Set(float64(res.Timing.Emulate))
	metrics.StagePower.Set(float64(res.Timing.Power))
	opts.Heartbeat.Final(int(done.Load()), int(failed.Load()))
	return res, nil
}

// rank orders candidates for emulation, most likely dominators
// first: ascending latency lower bound, then energy lower bound, then
// index. It is a total order on the points of one run.
func rank(points []Point, a, b int) int {
	pa, pb := &points[a], &points[b]
	if c := cmp.Compare(pa.LowerPs, pb.LowerPs); c != 0 {
		return c
	}
	if c := cmp.Compare(pa.EnergyLBPJ, pb.EnergyLBPJ); c != 0 {
		return c
	}
	return cmp.Compare(pa.Index, pb.Index)
}

// nextWave splits remaining into the next wave, its size entries that
// rank first, sorted by rank, and the rest, in their previous order. A bounded max-heap of size entries keeps the selection at
// O(len(remaining) · log size); the wave is built in buf when
// remaining holds more than size entries, and is remaining itself
// otherwise. Taking the first size survivors of each prune pass this
// way emits exactly the waves a full sort of the candidates would: the
// prune pass drops the same set whatever the order of remaining.
func nextWave(points []Point, remaining []int, size int, buf []int) (wave, rest []int) {
	byRank := func(a, b int) int { return rank(points, a, b) }
	if len(remaining) <= size {
		slices.SortFunc(remaining, byRank)
		return remaining, nil
	}
	// Max-heap under rank: h[0] is the last-ranked entry kept so far.
	h := append(buf[:0], remaining[:size]...)
	down := func(j int) {
		for {
			c := 2*j + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && byRank(h[c], h[c+1]) < 0 {
				c++
			}
			if byRank(h[j], h[c]) >= 0 {
				return
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
	}
	for j := size/2 - 1; j >= 0; j-- {
		down(j)
	}
	for _, i := range remaining[size:] {
		if byRank(i, h[0]) < 0 {
			h[0] = i
			down(0)
		}
	}
	// rank is total, so the wave is exactly the entries ranked at or
	// before its last one.
	last := h[0]
	rest = remaining[:0]
	for _, i := range remaining {
		if byRank(i, last) > 0 {
			rest = append(rest, i)
		}
	}
	slices.SortFunc(h, byRank)
	return h, rest
}

// paretoFront returns the indices of the non-dominated emulated
// points under weak dominance (q dominates p when q is no worse on
// both objectives and strictly better on at least one), sorted by
// (ExecPs, TotalPJ, Index). One front entry per distinct objective
// vector: exact ties collapse to their lowest-index member — the
// equivalent configurations stay visible in Points, the front is the
// trade-off curve. The choice is deterministic across pruned and
// exhaustive runs because an exact tie is never strictly dominated,
// so every tie member survives pruning and the sort sees all of them.
func paretoFront(points []Point, emulated []int) []int {
	idx := append([]int(nil), emulated...)
	sort.Slice(idx, func(i, j int) bool {
		a, b := &points[idx[i]], &points[idx[j]]
		if a.ExecPs != b.ExecPs {
			return a.ExecPs < b.ExecPs
		}
		if a.TotalPJ != b.TotalPJ {
			return a.TotalPJ < b.TotalPJ
		}
		return a.Index < b.Index
	})
	var front []int
	bestPJ := 0.0
	for k, i := range idx {
		// Sorted by (ExecPs, TotalPJ) asc: p joins the front iff it
		// strictly improves the running energy minimum (ties and
		// dominated points both fail the test).
		if p := &points[i]; k == 0 || p.TotalPJ < bestPJ {
			front = append(front, i)
			bestPJ = p.TotalPJ
		}
	}
	return front
}
