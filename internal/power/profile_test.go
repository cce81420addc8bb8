package power

// The profile is the pruning side of the energy model: these tests
// pin its two load-bearing claims — the static BU-crossing count
// equals what the emulator actually loads (so the "exact dynamic
// components" of the lower bound really are exact), and the lower
// bound never exceeds the estimate of a real run, whether priced at
// analyze's latency LB or at the run's last delivery, and equals it
// when priced at the run's own figures.

import (
	"math"
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

func profilePairs() []struct {
	name string
	m    *psdf.Model
	plat *platform.Platform
} {
	return []struct {
		name string
		m    *psdf.Model
		plat *platform.Platform
	}{
		{"mp3-3seg", apps.MP3Model(), apps.MP3Platform3(36)},
		{"mp3-2seg", apps.MP3Model(), apps.MP3Platform2(36)},
		{"mp3-1seg", apps.MP3Model(), apps.MP3Platform1(36)},
		{"mp3-3seg-s12", apps.MP3Model(), apps.MP3Platform3(12)},
		{"pipeline", apps.Pipeline(6, 36, 16), func() *platform.Platform {
			p := platform.New("pipe-3", 100*platform.MHz, 36)
			p.AddSegment(100*platform.MHz, 0, 1)
			p.AddSegment(100*platform.MHz, 2, 3)
			p.AddSegment(100*platform.MHz, 4, 5)
			return p
		}()},
	}
}

func TestProfileMatchesRun(t *testing.T) {
	for _, tc := range profilePairs() {
		pf, err := NewProfile(tc.m, tc.plat, Params{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r, err := emulator.Run(tc.m, tc.plat, emulator.Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var loaded int64
		for _, bu := range r.BUs {
			loaded += bu.LoadTicks
		}
		if got := pf.TotalBUItems(); got != loaded {
			t.Errorf("%s: static BU crossings %d != emulated load ticks %d", tc.name, got, loaded)
		}
		est, err := Estimate(tc.m, tc.plat, r, Params{})
		if err != nil {
			t.Fatal(err)
		}
		var estBusItems int64
		for _, se := range est.Segments {
			estBusItems += se.BusItems
		}
		if got := pf.TotalBusItems(); got != estBusItems {
			t.Errorf("%s: profile bus items %d != estimate's %d", tc.name, got, estBusItems)
		}
	}
}

func TestLowerBoundNeverExceedsEstimate(t *testing.T) {
	for _, tc := range profilePairs() {
		pf, err := NewProfile(tc.m, tc.plat, Params{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r, err := emulator.Run(tc.m, tc.plat, emulator.Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		est, err := Estimate(tc.m, tc.plat, r, Params{})
		if err != nil {
			t.Fatal(err)
		}
		q, err := analyze.NewBoundsQuery(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := q.Affine(tc.plat)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		saTicks := make([]int64, tc.plat.NumSegments())
		lowerPs, _, caTicks := ab.At(tc.plat.HeaderTicks, tc.plat.CAHopTicks, saTicks)
		if lowerPs > int64(r.EndPs) {
			t.Fatalf("%s: latency LB %d above the last delivery %d — bounds chain broken", tc.name, lowerPs, int64(r.EndPs))
		}
		if lb := pf.LowerBoundPJ(lowerPs, saTicks, caTicks); lb > est.TotalPJ {
			t.Errorf("%s: energy LB %.6f pJ exceeds estimate %.6f pJ", tc.name, lb, est.TotalPJ)
		}
		// Priced at the run's last delivery, which lies between the
		// latency bound and the execution time, the bound must still
		// hold: the dynamic components are exact and the arbiter
		// terms are priced at tick bounds no larger than the TCTs.
		if lb := pf.LowerBoundPJ(int64(r.EndPs), saTicks, caTicks); lb > est.TotalPJ {
			t.Errorf("%s: energy LB at the last delivery %.6f pJ exceeds estimate %.6f pJ", tc.name, lb, est.TotalPJ)
		}
		// Priced at the run's own execution time and TCTs, it is the
		// estimate itself, bit for bit: the accumulation order is
		// Estimate's.
		actual := make([]int64, len(tc.plat.Segments))
		for i, seg := range tc.plat.Segments {
			actual[i] = r.SA(seg.Index).TCT
		}
		if lb := pf.LowerBoundPJ(int64(r.ExecutionTimePs), actual, r.CA.TCT); math.Float64bits(lb) != math.Float64bits(est.TotalPJ) {
			t.Errorf("%s: priced at the run's own figures %v pJ, estimate %v pJ", tc.name, lb, est.TotalPJ)
		}
	}
}
