package analyze

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/dsl"

	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// referenceBounds is the per-package bounds loop as it stood before
// the coefficient pass replaced it: every figure priced directly at
// the platform's own HeaderTicks and CAHopTicks. It is kept verbatim
// as the differential oracle for BoundsQuery.Affine and Bounds.
func referenceBounds(m *psdf.Model, plat *platform.Platform) (*Bounds, error) {
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("analyze: bounds need a valid platform: %w", err)
	}
	if err := plat.ValidateMapping(m); err != nil {
		return nil, fmt.Errorf("analyze: bounds need a complete mapping: %w", err)
	}

	s := plat.PackageSize
	nominal := m.NominalPackageSize()
	header := int64(plat.HeaderTicks)
	caPeriod := plat.CAClock.PeriodPs()

	periods := make(map[int]int64, len(plat.Segments))
	maxPeriod := caPeriod
	for _, seg := range plat.Segments {
		periods[seg.Index] = seg.Clock.PeriodPs()
		if periods[seg.Index] > maxPeriod {
			maxPeriod = periods[seg.Index]
		}
	}

	b := &Bounds{PackageSize: s}
	segTicks := make(map[int]int64, len(plat.Segments))
	// Every border unit gets an entry, so fully idle BUs still show
	// up as the cold side of an imbalance.
	crossing := make(map[string]*BUCrossing)
	var crossOrder []string
	for _, bu := range plat.BUs() {
		name := bu.Name()
		crossing[name] = &BUCrossing{Name: name}
		crossOrder = append(crossOrder, name)
	}

	// itemsIn mirrors the emulator's itemsInPackage: full packages
	// with a possibly partial tail.
	itemsIn := func(f psdf.Flow, pkg int) int64 {
		rest := f.Items - (pkg-1)*s
		if rest > s {
			rest = s
		}
		if rest < 0 {
			rest = 0
		}
		return int64(rest)
	}
	// compute mirrors the emulator's computeTicks: C, rescaled by the
	// package's item share of the nominal package size.
	compute := func(f psdf.Flow, pkg int) int64 {
		c := int64(f.Ticks)
		if nominal <= 0 {
			return c
		}
		return (c*itemsIn(f, pkg) + int64(nominal) - 1) / int64(nominal)
	}

	// Serial per-process emission chains, per stage.
	var orders []int
	seenOrder := make(map[int]bool)
	chains := make(map[int]map[psdf.ProcessID]int64)

	var upperWork int64
	for _, f := range m.Flows() {
		if !seenOrder[f.Order] {
			seenOrder[f.Order] = true
			orders = append(orders, f.Order)
			chains[f.Order] = make(map[psdf.ProcessID]int64)
		}
		srcSeg := plat.SegmentOf(f.Source)
		dstSeg := srcSeg
		if f.Target != psdf.SystemOutput {
			dstSeg = plat.SegmentOf(f.Target)
		}
		route, rightward := plat.Route(srcSeg, dstSeg)
		hops := int64(len(route))
		pk := f.Packages(s)
		b.TotalPackages += pk

		for _, bu := range route {
			c := crossing[bu.Name()]
			if rightward {
				c.Rightward += pk
			} else {
				c.Leftward += pk
			}
		}

		for pkg := 1; pkg <= pk; pkg++ {
			items := itemsIn(f, pkg)
			srcPeriod := periods[srcSeg]
			// FU processing plus the source-segment transaction (an
			// intra-segment transfer or the fill into the first BU).
			latency := compute(f, pkg)*srcPeriod + (header+items)*srcPeriod
			segTicks[srcSeg] += header + items
			// CA circuit set-up, charged per hop on the CA clock.
			latency += hops * int64(plat.CAHopTicks) * caPeriod
			b.CASetupTicks += hops * int64(plat.CAHopTicks)
			// One unload transaction per crossed BU, charged on the
			// entered segment's bus and clock.
			for _, bu := range route {
				entered := bu.Right
				if !rightward {
					entered = bu.Left
				}
				segTicks[entered] += header + items
				latency += (header + items) * periods[entered]
			}
			chains[f.Order][f.Source] += latency
			// Full-serialisation allowance: the package's isolated
			// latency plus a clock-edge alignment per scheduling step
			// (compute start, grant, per-hop CA grant and unload
			// grant, delivery), each at most one period of the
			// slowest clock.
			upperWork += latency + (4+3*hops)*maxPeriod
		}
	}

	sort.Ints(orders)
	for _, t := range orders {
		var stageMax int64
		for _, total := range chains[t] {
			if total > stageMax {
				stageMax = total
			}
		}
		b.CriticalPathPs += stageMax
	}

	for _, seg := range plat.Segments {
		ticks := segTicks[seg.Index]
		busy := ticks * periods[seg.Index]
		b.Segments = append(b.Segments, SegmentLoad{Segment: seg.Index, BusTicks: ticks, BusyPs: busy})
		if busy > b.BusLoadPs {
			b.BusLoadPs = busy
		}
	}
	b.LowerPs = b.CriticalPathPs
	if b.BusLoadPs > b.LowerPs {
		b.LowerPs = b.BusLoadPs
	}
	// End detection: the monitor adds DetectTicks CA ticks after the
	// last activity, and every arbiter's tick total is rounded up to
	// a full period.
	b.UpperPs = upperWork + (emulator.DefaultDetectTicks+1)*caPeriod + maxPeriod

	for _, name := range crossOrder {
		b.Crossings = append(b.Crossings, *crossing[name])
	}
	return b, nil
}

// diffTicks are the tick values the differential substitutes for both
// HeaderTicks and CAHopTicks: zero, one, odd values, the paper's 25,
// and a value large enough to dominate every other term.
var diffTicks = []int{0, 1, 3, 7, 25, 101, 1_000_000}

// checkAffineAgainstReference asserts the coefficient pass is exact:
// Bounds equals the reference loop field for field, and At and the
// full evaluation at every tick pair equal the reference run on a
// clone carrying those ticks.
func checkAffineAgainstReference(t *testing.T, label string, m *psdf.Model, plat *platform.Platform) {
	t.Helper()
	want, err := referenceBounds(m, plat)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	q, err := NewBoundsQuery(m)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := q.Bounds(plat)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Bounds diverged from the reference\ngot  %+v\nwant %+v", label, got, want)
	}
	a, err := q.Affine(plat)
	if err != nil {
		t.Fatalf("%s: Affine: %v", label, err)
	}
	for _, h := range diffTicks {
		for _, ca := range diffTicks {
			clone := plat.Clone()
			clone.HeaderTicks, clone.CAHopTicks = h, ca
			ref, err := referenceBounds(m, clone)
			if err != nil {
				t.Fatalf("%s h=%d ca=%d: reference: %v", label, h, ca, err)
			}
			if lo, up := a.At(h, ca); lo != ref.LowerPs || up != ref.UpperPs {
				t.Fatalf("%s h=%d ca=%d: At = (%d, %d), reference (%d, %d)", label, h, ca, lo, up, ref.LowerPs, ref.UpperPs)
			}
			if full := a.bounds(h, ca); !reflect.DeepEqual(full, ref) {
				t.Fatalf("%s h=%d ca=%d: evaluation diverged from the reference\ngot  %+v\nwant %+v", label, h, ca, full, ref)
			}
		}
	}
}

func TestAffineMatchesReferenceCorpus(t *testing.T) {
	m := apps.MP3Model()
	for _, s := range []int{4, 18, 36, 72} {
		for name, plat := range map[string]*platform.Platform{
			"1seg":         apps.MP3Platform1(s),
			"2seg":         apps.MP3Platform2(s),
			"3seg":         apps.MP3Platform3(s),
			"3seg-p9moved": apps.MP3Platform3MovedP9(s),
		} {
			checkAffineAgainstReference(t, fmt.Sprintf("mp3 %s s=%d", name, s), m, plat)
		}
	}
	paths, err := filepath.Glob("../../testdata/scenarios/*.sbd")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "../../testdata/mp3.sbd", "../../testdata/pairs.sbd")
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := dsl.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if doc.Platform == nil {
			t.Fatalf("%s: scenario without platform", path)
		}
		checkAffineAgainstReference(t, filepath.Base(path), doc.Model, doc.Platform)
	}
}

// TestAffineMatchesReferenceRandom replays TestBoundsRandomSystems'
// generator, then a wider one with up to six mixed-clock segments.
func TestAffineMatchesReferenceRandom(t *testing.T) {
	for _, gen := range []struct {
		seed        int64
		trials      int
		maxSegments int
	}{{2026, 80, 4}, {6, 40, 6}} {
		rng := rand.New(rand.NewSource(gen.seed))
		for trial := 0; trial < gen.trials; trial++ {
			pkg := []int{9, 18, 36, 72}[rng.Intn(4)]
			m := apps.RandomModel(rng, 5, 4, pkg)
			plat := apps.RandomPlatform(rng, m, gen.maxSegments, pkg)
			plat.HeaderTicks = rng.Intn(30)
			plat.CAHopTicks = rng.Intn(30)
			label := fmt.Sprintf("seed %d trial %d (s=%d, %d procs, %d segs)",
				gen.seed, trial, pkg, m.NumProcesses(), plat.NumSegments())
			checkAffineAgainstReference(t, label, m, plat)
		}
	}
}

// TestAffineRejectsLikeReference: invalid platforms fail the new path
// with the reference's error.
func TestAffineRejectsLikeReference(t *testing.T) {
	m := apps.MP3Model()
	partial := platform.New("partial", 111*platform.MHz, 36)
	partial.AddSegment(100*platform.MHz, 0, 1)
	negative := apps.MP3Platform2(36)
	negative.HeaderTicks = -1
	for _, plat := range []*platform.Platform{platform.New("bad", 0, 0), partial, negative} {
		_, want := referenceBounds(m, plat)
		if want == nil {
			t.Fatalf("%s: reference accepted an invalid platform", plat.Name)
		}
		q, err := NewBoundsQuery(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Affine(plat); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Affine error %v, reference %v", plat.Name, err, want)
		}
		if _, err := q.Bounds(plat); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Bounds error %v, reference %v", plat.Name, err, want)
		}
	}
}
