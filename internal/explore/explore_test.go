package explore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"segbus/internal/analyze"
	"segbus/internal/apps"
	"segbus/internal/obs"
	"segbus/internal/power"
	"segbus/internal/psdf"
)

func TestSpaceValidation(t *testing.T) {
	cases := []struct {
		name string
		s    Space
	}{
		{"no segments", Space{PackageSizes: []int{36}}},
		{"no package sizes", Space{Segments: []int{2}}},
		{"zero segment", Space{Segments: []int{0}, PackageSizes: []int{36}}},
		{"zero package", Space{Segments: []int{2}, PackageSizes: []int{0}}},
		{"bad mapping", Space{Segments: []int{2}, PackageSizes: []int{36}, Mappings: []string{"magic"}}},
		{"negative header", Space{Segments: []int{2}, PackageSizes: []int{36}, HeaderTicks: []int{-1}}},
		{"negative hop", Space{Segments: []int{2}, PackageSizes: []int{36}, CAHopTicks: []int{-1}}},
		{"zero clock", Space{Segments: []int{2}, PackageSizes: []int{36}, SegmentClocksMHz: []int{0}}},
		{"negative CA clock", Space{Segments: []int{2}, PackageSizes: []int{36}, CAClockMHz: -4}},
	}
	for _, tc := range cases {
		if _, err := tc.s.withDefaults(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
		if got := tc.s.Size(); got != 0 {
			t.Errorf("%s: Size() = %d on invalid space", tc.name, got)
		}
	}

	s := Space{Segments: []int{2, 3}, PackageSizes: []int{18, 36}}
	sp, err := s.withDefaults()
	if err != nil {
		t.Fatalf("withDefaults: %v", err)
	}
	if len(sp.Mappings) != 1 || sp.Mappings[0] != MappingSolve {
		t.Errorf("default mappings = %v", sp.Mappings)
	}
	if len(sp.HeaderTicks) != 1 || sp.HeaderTicks[0] != 25 {
		t.Errorf("default header ticks = %v", sp.HeaderTicks)
	}
	if len(sp.CAHopTicks) != 1 || sp.CAHopTicks[0] != 25 {
		t.Errorf("default CA hop ticks = %v", sp.CAHopTicks)
	}
	if sp.CAClockMHz != 111 {
		t.Errorf("default CA clock = %d", sp.CAClockMHz)
	}
	if got := s.Size(); got != 4 {
		t.Errorf("Size() = %d, want 4", got)
	}
}

func TestEnumerateCanonicalOrder(t *testing.T) {
	m := apps.MP3Model()
	s := &Space{
		Segments:     []int{3, 2},
		Mappings:     []string{MappingSolve, MappingRoundRobin},
		PackageSizes: []int{36, 18},
		HeaderTicks:  []int{25, 0},
		CAHopTicks:   []int{25},
	}
	cands, err := s.Enumerate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != s.Size() || len(cands) != 16 {
		t.Fatalf("got %d candidates, want 16", len(cands))
	}
	// Axes iterate in listed order, innermost last; Index mirrors the
	// slice position.
	want0 := Candidate{Index: 0, Segments: 3, Mapping: MappingSolve, PackageSize: 36, HeaderTicks: 25, CAHopTicks: 25}
	got0 := cands[0]
	got0.Platform, got0.Label = nil, ""
	want0.Label = ""
	if got0 != want0 {
		t.Errorf("candidate 0 = %+v, want %+v", got0, want0)
	}
	for i, c := range cands {
		if c.Index != i {
			t.Fatalf("candidate %d carries Index %d", i, c.Index)
		}
		if c.Platform == nil {
			t.Fatalf("candidate %d has no platform", i)
		}
		if c.Platform.PackageSize != c.PackageSize || c.Platform.HeaderTicks != c.HeaderTicks {
			t.Fatalf("candidate %d platform disagrees with axes", i)
		}
		if got := len(c.Platform.Segments); got != c.Segments {
			t.Fatalf("candidate %d: %d platform segments, want %d", i, got, c.Segments)
		}
	}
	// Header ticks vary before package size rolls over.
	if cands[0].HeaderTicks != 25 || cands[1].HeaderTicks != 0 {
		t.Errorf("inner axis order wrong: %+v %+v", cands[0], cands[1])
	}
	if cands[0].PackageSize != 36 || cands[2].PackageSize != 18 {
		t.Errorf("package axis order wrong")
	}
	// Each segments block spans mappings × sizes × headers = 8
	// candidates; the mapping axis rolls over halfway through.
	if cands[4].Mapping != MappingRoundRobin || cands[8].Segments != 2 {
		t.Errorf("axis order wrong: cands[4]=%+v cands[8]=%+v", cands[4], cands[8])
	}
}

// randomSpace builds a small conform space over the model's process
// count: every axis gets 1-2 random values, so spaces span 2..16
// candidates.
func randomSpace(rng *rand.Rand, nprocs int) *Space {
	pick := func(vals []int) []int {
		n := 1 + rng.Intn(2)
		out := make([]int, 0, n)
		perm := rng.Perm(len(vals))
		for _, i := range perm[:n] {
			out = append(out, vals[i])
		}
		return out
	}
	maxSeg := nprocs
	if maxSeg > 3 {
		maxSeg = 3
	}
	segs := pick([]int{1, 2, 3}[:maxSeg])
	mappings := []string{MappingSolve}
	if rng.Intn(2) == 0 {
		mappings = append(mappings, MappingRoundRobin)
	}
	return &Space{
		Name:         "prop",
		Segments:     segs,
		Mappings:     mappings,
		PackageSizes: pick([]int{4, 9, 18, 36}),
		HeaderTicks:  pick([]int{0, 10, 25, 80}),
		CAHopTicks:   pick([]int{0, 25, 100}),
	}
}

// TestGroupedBoundsMatchPerCandidate is the point-level oracle for
// group pricing: every point's bounds and energy bound equal the
// per-candidate analysis of its own platform, and every member's own
// platform and mapping validation agrees with its group's.
func TestGroupedBoundsMatchPerCandidate(t *testing.T) {
	check := func(label string, m *psdf.Model, space *Space) {
		t.Helper()
		res, err := Run(m, space, Options{})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cands := make([]Candidate, len(res.Points))
		for i := range res.Points {
			cands[i] = res.Points[i].Candidate
		}
		sameErr := func(a, b error) bool { return (a == nil) == (b == nil) }
		for _, group := range tickGroups(cands) {
			first := res.Points[group[0]].Platform
			for _, i := range group {
				p := &res.Points[i]
				if !sameErr(p.Platform.Validate(), first.Validate()) ||
					!sameErr(p.Platform.ValidateMapping(m), first.ValidateMapping(m)) {
					t.Fatalf("%s: %s validates unlike its group's %s", label, p.Label, first.Name)
				}
				b, err := analyze.ComputeBounds(m, p.Platform)
				if err != nil {
					t.Fatalf("%s: %s: %v", label, p.Label, err)
				}
				pf, err := power.NewProfile(m, p.Platform, power.Params{})
				if err != nil {
					t.Fatalf("%s: %s: %v", label, p.Label, err)
				}
				lbPJ := pf.LowerBoundPJ(b.LowerPs)
				if p.LowerPs != b.LowerPs || p.UpperPs != b.UpperPs ||
					math.Float64bits(p.EnergyLBPJ) != math.Float64bits(lbPJ) {
					t.Fatalf("%s: %s: grouped (%d, %d, %v), per candidate (%d, %d, %v)",
						label, p.Label, p.LowerPs, p.UpperPs, p.EnergyLBPJ, b.LowerPs, b.UpperPs, lbPJ)
				}
			}
		}
	}
	check("reference", apps.MP3Model(), ReferenceMP3Space())
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := apps.RandomModel(rng, 3, 3, 4)
		check(fmt.Sprintf("seed %d", seed), m, randomSpace(rng, len(m.Processes())))
	}
}

func frontKey(r *Result) string {
	var b bytes.Buffer
	for _, i := range r.Front {
		p := &r.Points[i]
		fmt.Fprintf(&b, "%s exec=%d pj=%.9g\n", p.Label, p.ExecPs, p.TotalPJ)
	}
	return b.String()
}

// TestPruneSoundnessProperty is the explorer's core guarantee: over
// hundreds of generated (model, space) pairs, the bounds-pruned run
// produces exactly the Pareto front of the exhaustive run — pruning
// changes cost, never results. It also spot-checks the pruning
// premise directly: every emulated point respects its own bounds.
func TestPruneSoundnessProperty(t *testing.T) {
	const seeds = 200
	prunedSomething := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := apps.RandomModel(rng, 3, 3, 4)
		space := randomSpace(rng, len(m.Processes()))

		exact, err := Run(m, space, Options{NoPrune: true, WaveSize: 4})
		if err != nil {
			t.Fatalf("seed %d: exhaustive: %v", seed, err)
		}
		pruned, err := Run(m, space, Options{WaveSize: 4})
		if err != nil {
			t.Fatalf("seed %d: pruned: %v", seed, err)
		}
		if exact.Errors != 0 || pruned.Errors != 0 {
			t.Fatalf("seed %d: unexpected candidate errors (%d, %d)", seed, exact.Errors, pruned.Errors)
		}
		if got, want := frontKey(pruned), frontKey(exact); got != want {
			t.Fatalf("seed %d: pruned front diverged from exhaustive\npruned:\n%swant:\n%s", seed, got, want)
		}
		if pruned.Pruned+pruned.Emulated+pruned.Errors != pruned.Generated {
			t.Fatalf("seed %d: counters don't add up: %+v", seed, pruned)
		}
		if pruned.Pruned > 0 {
			prunedSomething++
		}
		for i := range exact.Points {
			p := &exact.Points[i]
			if !p.Emulated {
				continue
			}
			if p.ExecPs < p.LowerPs || p.ExecPs > p.UpperPs {
				t.Fatalf("seed %d: %s exec %d outside bounds [%d, %d]", seed, p.Label, p.ExecPs, p.LowerPs, p.UpperPs)
			}
			if p.TotalPJ < p.EnergyLBPJ {
				t.Fatalf("seed %d: %s energy %.6f below its lower bound %.6f", seed, p.Label, p.TotalPJ, p.EnergyLBPJ)
			}
		}
	}
	// The property is vacuous if nothing ever gets pruned.
	if prunedSomething < seeds/4 {
		t.Fatalf("only %d/%d spaces exercised pruning", prunedSomething, seeds)
	}
}

// TestReferenceSpaceDeterminism runs the 10240-candidate reference
// space at 1, 4 and 8 workers: the full JSON report must be
// byte-identical, the pruning ratio must clear the 50%% the ISSUE
// demands (it is well above), and the pruned front must equal the
// exhaustive front.
func TestReferenceSpaceDeterminism(t *testing.T) {
	m := apps.MP3Model()
	space := ReferenceMP3Space()
	if space.Size() < 10000 {
		t.Fatalf("reference space shrank to %d candidates", space.Size())
	}

	var baseline []byte
	var base *Result
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(m, space, Options{Workers: workers, Seed: int64(workers)})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatalf("workers=%d: JSON: %v", workers, err)
		}
		if baseline == nil {
			baseline, base = js, res
			continue
		}
		if !bytes.Equal(js, baseline) {
			t.Fatalf("workers=%d: JSON report differs from workers=1", workers)
		}
		if res.Pruned != base.Pruned || res.Waves != base.Waves {
			t.Fatalf("workers=%d: counters differ: %d/%d vs %d/%d", workers, res.Pruned, res.Waves, base.Pruned, base.Waves)
		}
	}
	if base.PruningRatio < 0.5 {
		t.Fatalf("pruning ratio %.3f below the 0.5 floor", base.PruningRatio)
	}
	if base.Errors != 0 {
		t.Fatalf("%d candidate errors on the reference space", base.Errors)
	}
	if len(base.Front) == 0 {
		t.Fatal("empty Pareto front")
	}

	if testing.Short() {
		return
	}
	exact, err := Run(m, space, Options{NoPrune: true})
	if err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	if got, want := frontKey(base), frontKey(exact); got != want {
		t.Fatalf("pruned reference front differs from exhaustive\npruned:\n%sexhaustive:\n%s", got, want)
	}
}

func TestFrontIsPareto(t *testing.T) {
	m := apps.MP3Model()
	space := &Space{
		Segments:     []int{1, 2, 3},
		PackageSizes: []int{9, 18, 36},
		HeaderTicks:  []int{0, 100},
	}
	res, err := Run(m, space, Options{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	onFront := make(map[int]bool, len(res.Front))
	for _, i := range res.Front {
		onFront[i] = true
	}
	dominates := func(a, b *Point) bool {
		return a.ExecPs <= b.ExecPs && a.TotalPJ <= b.TotalPJ &&
			(a.ExecPs < b.ExecPs || a.TotalPJ < b.TotalPJ)
	}
	for i := range res.Points {
		p := &res.Points[i]
		if !p.Emulated {
			continue
		}
		dominated := false
		for j := range res.Points {
			if j != i && res.Points[j].Emulated && dominates(&res.Points[j], p) {
				dominated = true
				break
			}
		}
		// Front membership: non-dominated AND the lowest-index member
		// of its exact-tie class (the front collapses duplicates).
		firstOfTies := true
		for j := 0; j < i; j++ {
			q := &res.Points[j]
			if q.Emulated && q.ExecPs == p.ExecPs && q.TotalPJ == p.TotalPJ {
				firstOfTies = false
				break
			}
		}
		if want := !dominated && firstOfTies; want != onFront[i] {
			t.Errorf("%s: dominated=%v firstOfTies=%v but onFront=%v", p.Label, dominated, firstOfTies, onFront[i])
		}
	}
	// Front is sorted by latency ascending, energy descending (a
	// proper trade-off curve).
	for k := 1; k < len(res.Front); k++ {
		a, b := &res.Points[res.Front[k-1]], &res.Points[res.Front[k]]
		if b.ExecPs < a.ExecPs {
			t.Errorf("front not sorted by latency: %d before %d", a.ExecPs, b.ExecPs)
		}
	}
}

func TestExploreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := apps.MP3Model()
	space := &Space{Segments: []int{2, 3}, PackageSizes: []int{9, 36}, HeaderTicks: []int{0, 150}, CAHopTicks: []int{0, 200}}
	res, err := Run(m, space, Options{Registry: reg, WaveSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot(false)
	get := func(name string) float64 {
		v, ok := snap[name]
		if !ok {
			t.Fatalf("metric %s missing from snapshot", name)
		}
		return v
	}
	if got := get(obs.MetricExploreGenerated); got != float64(res.Generated) {
		t.Errorf("generated counter = %v, want %d", got, res.Generated)
	}
	if got := get(obs.MetricExplorePruned); got != float64(res.Pruned) {
		t.Errorf("pruned counter = %v, want %d", got, res.Pruned)
	}
	if got := get(obs.MetricExploreEmulated); got != float64(res.Emulated) {
		t.Errorf("emulated counter = %v, want %d", got, res.Emulated)
	}
	if got := get(obs.MetricExploreWaves); got != float64(res.Waves) {
		t.Errorf("waves counter = %v, want %d", got, res.Waves)
	}
	if got := get(obs.MetricExploreFrontSize); got != float64(len(res.Front)) {
		t.Errorf("front size gauge = %v, want %d", got, len(res.Front))
	}
	if got := get(obs.MetricExplorePruningRatio); got != res.PruningRatio {
		t.Errorf("pruning ratio gauge = %v, want %v", got, res.PruningRatio)
	}
	if res.Generated != res.Pruned+res.Emulated+res.Errors {
		t.Errorf("counters don't add up: %+v", res)
	}
	if res.Timing.Bounds <= 0 || res.Timing.Emulate <= 0 {
		t.Errorf("stage timings not recorded: %+v", res.Timing)
	}
}

func TestHeartbeatTicksPerEmulation(t *testing.T) {
	var buf bytes.Buffer
	hb := obs.NewHeartbeat(&buf, "explore", 0, 3)
	m := apps.Pipeline(4, 36, 16)
	space := &Space{Segments: []int{2}, PackageSizes: []int{36, 18, 9}}
	res, err := Run(m, space, Options{Heartbeat: hb, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Emulated != 3 {
		t.Fatalf("emulated %d, want 3", res.Emulated)
	}
	if buf.Len() == 0 {
		t.Error("heartbeat produced no output")
	}
}

// TestWorkerSpeedup measures the explorer's parallel scaling. It
// needs real cores to mean anything, so it skips on the 1-2 CPU boxes
// the unit suite usually runs on. The serial and 8-worker arms
// alternate in one loop, swapping which goes first each round, and
// the minimum of each arm is compared, so a burst of load from
// elsewhere on the machine slows both arms instead of one.
func TestWorkerSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short")
	}
	cpus := runtime.NumCPU()
	if cpus < 4 {
		t.Skipf("only %d CPUs: wall-clock speedup is not measurable here (see BENCH notes)", cpus)
	}
	m := apps.MP3Model()
	space := ReferenceMP3Space()
	measure := func(workers int) time.Duration {
		start := time.Now()
		if _, err := Run(m, space, Options{Workers: workers, NoPrune: true}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const rounds = 3
	serial, wide := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < rounds; r++ {
		arms := []int{1, 8}
		if r%2 == 1 {
			arms = []int{8, 1}
		}
		for _, w := range arms {
			d := measure(w)
			if w == 1 {
				serial = min(serial, d)
			} else {
				wide = min(wide, d)
			}
		}
	}
	if speedup := float64(serial) / float64(wide); speedup < 3 {
		t.Errorf("8-worker speedup %.2fx below the 3x floor (min of %d rounds: serial %s, 8w %s)", speedup, rounds, serial, wide)
	}
}

// pairsModel is three independent producer/consumer pairs streaming
// concurrently — the workload with a real latency-vs-energy
// trade-off: separate segments stream the pairs in parallel (lower
// latency) but each segment pays its static power. Mirrors
// testdata/pairs.sbd.
func pairsModel() *psdf.Model {
	m := psdf.NewModel("pairs")
	for i := 0; i < 3; i++ {
		m.AddFlow(psdf.Flow{
			Source: psdf.ProcessID(2 * i), Target: psdf.ProcessID(2*i + 1),
			Items: 288, Order: 1, Ticks: 40,
		})
	}
	return m
}

// TestTradeoffFront pins a genuinely multi-point Pareto front: on the
// pairs workload, more segments buy latency with energy, so no single
// configuration dominates, and the front must be sorted as a proper
// trade-off curve (latency ascending, energy strictly descending).
func TestTradeoffFront(t *testing.T) {
	space := &Space{Segments: []int{1, 2, 3}, PackageSizes: []int{36, 72}, HeaderTicks: []int{0, 25}}
	res, err := Run(pairsModel(), space, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) < 3 {
		t.Fatalf("front has %d points, want one per segment count:\n%s", len(res.Front), res.FrontTable())
	}
	first, last := res.Points[res.Front[0]], res.Points[res.Front[len(res.Front)-1]]
	if first.Segments <= last.Segments {
		t.Errorf("expected the fast end to use more segments: %d ... %d", first.Segments, last.Segments)
	}
	for k := 1; k < len(res.Front); k++ {
		a, b := &res.Points[res.Front[k-1]], &res.Points[res.Front[k]]
		if b.ExecPs <= a.ExecPs || b.TotalPJ >= a.TotalPJ {
			t.Errorf("front not a strict trade-off curve at %d: (%d, %.3f) -> (%d, %.3f)",
				k, a.ExecPs, a.TotalPJ, b.ExecPs, b.TotalPJ)
		}
	}
}
