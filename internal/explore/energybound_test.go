package explore

// The energy lower bound prices arbiter activity at analyze's static
// SA and CA tick bounds. These tests pin the inequalities that make
// that pricing sound, against emulator.Run with the explorer's own
// configuration (Config{}): every SA tick bound at most its SA's TCT,
// the CA tick bound at most the CA's TCT, the latency bound at most
// the last delivery (EndPs), and the priced energy bound at most the
// estimate's TotalPJ.

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/apps"
	"segbus/internal/conform"
	"segbus/internal/dsl"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/power"
	"segbus/internal/psdf"
)

// checkEnergyBound derives the static bounds of (m, plat) the way the
// explorer does, emulates the pair and asserts every bound against the
// run. The emulation must succeed.
func checkEnergyBound(t *testing.T, label string, m *psdf.Model, plat *platform.Platform) {
	t.Helper()
	q, err := analyze.NewBoundsQuery(m)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ab, err := q.Affine(plat)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	pf, err := power.NewProfile(m, plat, power.Params{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	r, err := emulator.Run(m, plat, emulator.Config{})
	if err != nil {
		t.Fatalf("%s: emulate: %v", label, err)
	}
	est, err := power.Estimate(m, plat, r, power.Params{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	saTicks := make([]int64, len(plat.Segments))
	lowerPs, _, caTicks := ab.At(plat.HeaderTicks, plat.CAHopTicks, saTicks)
	for i, seg := range plat.Segments {
		if got := r.SA(seg.Index).TCT; saTicks[i] > got {
			t.Fatalf("%s: SA%d tick bound %d above its TCT %d", label, seg.Index, saTicks[i], got)
		}
	}
	if caTicks > r.CA.TCT {
		t.Fatalf("%s: CA tick bound %d above its TCT %d", label, caTicks, r.CA.TCT)
	}
	if lowerPs > int64(r.EndPs) {
		t.Fatalf("%s: latency bound %d ps above the last delivery %d ps", label, lowerPs, int64(r.EndPs))
	}
	if lb := pf.LowerBoundPJ(lowerPs, saTicks, caTicks); lb > est.TotalPJ {
		t.Fatalf("%s: energy bound %.6f pJ above the estimate %.6f pJ", label, lb, est.TotalPJ)
	}
}

// TestEnergyBoundSoundnessConform checks the bounds on the servable
// conformance cases of seeds 1-10 and of the held-out seed 9176, with
// the scenario corpus feeding the generator.
func TestEnergyBoundSoundnessConform(t *testing.T) {
	corpus, err := conform.LoadCorpusDir("../../testdata/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("scenario corpus missing")
	}
	perSeed := 300
	if testing.Short() {
		perSeed = 40
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 9176} {
		cases, err := conform.ServableCases(seed, perSeed, corpus)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			checkEnergyBound(t, fmt.Sprintf("seed %d case %d (%s)", seed, c.Index, c.Origin), c.Doc.Model, c.Doc.Platform)
		}
	}
}

// TestEnergyBoundSoundnessSpaces checks the bounds on every point of
// exhaustive explorer runs — the 20 random spaces of
// TestGroupedBoundsMatchPerCandidate and the reference MP3 space — on
// the platform the explorer emulated, and the point's own energy bound
// against its estimate.
func TestEnergyBoundSoundnessSpaces(t *testing.T) {
	check := func(label string, m *psdf.Model, space *Space) {
		t.Helper()
		res, err := Run(m, space, Options{NoPrune: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i := range res.Points {
			p := &res.Points[i]
			if !p.Emulated {
				t.Fatalf("%s: %s not emulated in an exhaustive run: %v", label, p.Label, p.Err)
			}
			if p.EnergyLBPJ > p.TotalPJ {
				t.Fatalf("%s: %s energy bound %.6f pJ above the estimate %.6f pJ", label, p.Label, p.EnergyLBPJ, p.TotalPJ)
			}
			checkEnergyBound(t, label+": "+p.Label, m, p.Platform)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := apps.RandomModel(rng, 3, 3, 4)
		check(fmt.Sprintf("seed %d", seed), m, randomSpace(rng, len(m.Processes())))
	}
	// The reference space emulates 10240 candidates twice. The check
	// is sequential, so the race detector adds nothing to it but time.
	if testing.Short() || raceEnabled {
		return
	}
	check("reference", apps.MP3Model(), ReferenceMP3Space())
}

// TestPerCandidateBoundsAllocs pins the explorer's per-candidate bounds
// path — At with its arbiter ticks, then LowerBoundPJ — at zero
// allocations: a group task allocates its tick slice once and reuses
// it for every member.
func TestPerCandidateBoundsAllocs(t *testing.T) {
	m := apps.MP3Model()
	plat := apps.MP3Platform3(36)
	q, err := analyze.NewBoundsQuery(m)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := q.Affine(plat)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := power.NewProfile(m, plat, power.Params{})
	if err != nil {
		t.Fatal(err)
	}
	saTicks := make([]int64, len(plat.Segments))
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		lowerPs, _, caTicks := ab.At(25, 25, saTicks)
		sink += pf.LowerBoundPJ(lowerPs, saTicks, caTicks)
	})
	if allocs != 0 {
		t.Fatalf("per-candidate bounds allocate %v times per call, want 0", allocs)
	}
	if sink <= 0 {
		t.Fatal("energy bound not positive")
	}
}

// FuzzEnergyBound runs checkEnergyBound on arbitrary DSL documents
// that carry a platform and emulate, seeded like sched's FuzzProgram
// from the conformance generator and the deadlock gallery.
func FuzzEnergyBound(f *testing.F) {
	gen := conform.NewGenerator(1, nil)
	for i := 0; i < 12; i++ {
		f.Add(gen.Next().Doc.Print())
	}
	for _, path := range []string{
		"../../testdata/scenarios/deadlock/cyclic-2seg.sbd",
		"../../testdata/scenarios/deadlock/starved-order.sbd",
	} {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text))
	}
	f.Fuzz(func(t *testing.T, text string) {
		doc, err := dsl.Parse(strings.NewReader(text))
		if err != nil || doc.Model == nil || doc.Platform == nil || doc.Validate().HasErrors() {
			t.Skip()
		}
		if s := doc.Platform.PackageSize; s <= 0 || doc.Model.TotalPackages(s) > 1<<12 {
			t.Skip() // keep one execution cheap
		}
		if _, err := analyze.ComputeBounds(doc.Model, doc.Platform); err != nil {
			t.Skip()
		}
		if _, err := emulator.Run(doc.Model, doc.Platform, emulator.Config{}); err != nil {
			t.Skip() // a deadlock or a rejected pair has no run to bound
		}
		checkEnergyBound(t, "fuzz", doc.Model, doc.Platform)
	})
}
