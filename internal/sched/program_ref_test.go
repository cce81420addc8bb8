package sched_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/conform"
	"segbus/internal/dsl"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// refEntry is one emission as the reference derives it.
type refEntry struct {
	flow    sched.FlowID
	pkg     int
	need    int
	items   int
	compute int64
}

// procOrderKey packs a (process, order) pair into one map key for the
// emission-program scratch tables.
func procOrderKey(p psdf.ProcessID, order int) uint64 {
	return uint64(uint32(p))<<32 | uint64(uint32(order))
}

// inBefore and inSame are the per-process input package totals the
// firing gates are derived from: packages a process receives on
// earlier orders, respectively on the same order.
func inBefore(flows []psdf.Flow, s int, p psdf.ProcessID, order int) int {
	n := 0
	for _, f := range flows {
		if f.Target == p && f.Order < order {
			n += f.Packages(s)
		}
	}
	return n
}

func inSame(flows []psdf.Flow, s int, p psdf.ProcessID, order int) int {
	n := 0
	for _, f := range flows {
		if f.Target == p && f.Order == order {
			n += f.Packages(s)
		}
	}
	return n
}

// itemsInPackage returns the number of data items the pkg-th (1-based)
// package of flow f carries: the platform package size except for a
// possibly partial final package.
func itemsInPackage(f psdf.Flow, s, pkg int) int {
	rest := f.Items - (pkg-1)*s
	if rest > s {
		return s
	}
	if rest < 0 {
		return 0
	}
	return rest
}

// computeTicks returns the FU processing cost for one package: the
// flow's C value, scaled by the package's item count relative to the
// model's nominal package size when one is declared.
func computeTicks(f psdf.Flow, s, nominal, pkg int) int64 {
	c := int64(f.Ticks)
	if nominal <= 0 {
		return c
	}
	items := int64(itemsInPackage(f, s, pkg))
	return (c*items + int64(nominal) - 1) / int64(nominal)
}

// referencePrograms is the emission-program derivation the emulator's
// prime carried before sched compiled the table, kept verbatim as the
// differential oracle for Schedule.Program: the flows in canonical
// order, one entry per package, gated by inputs-before-this-order
// plus the proportional same-order share ceil(k·is/os), with the
// machine's item and compute formulas. Processes that emit nothing
// have no key.
func referencePrograms(m *psdf.Model, s int) map[psdf.ProcessID][]refEntry {
	flows := m.Flows()
	nominal := m.NominalPackageSize()
	outSame := make(map[uint64]int)
	kSame := make(map[uint64]int)
	for _, f := range flows {
		outSame[procOrderKey(f.Source, f.Order)] += f.Packages(s)
	}
	programs := make(map[psdf.ProcessID][]refEntry)
	for i, f := range flows {
		key := procOrderKey(f.Source, f.Order)
		ib := inBefore(flows, s, f.Source, f.Order)
		is := inSame(flows, s, f.Source, f.Order)
		os := outSame[key]
		for pkg := 1; pkg <= f.Packages(s); pkg++ {
			kSame[key]++
			k := kSame[key]
			need := ib
			if is > 0 && os > 0 {
				need = ib + (k*is+os-1)/os
			}
			programs[f.Source] = append(programs[f.Source], refEntry{
				flow: sched.FlowID(i), pkg: pkg, need: need,
				items: itemsInPackage(f, s, pkg), compute: computeTicks(f, s, nominal, pkg),
			})
		}
	}
	return programs
}

// checkProgram compares every process's compiled program with the
// reference derivation, and each entry's stage index with its flow's
// order.
func checkProgram(t *testing.T, label string, m *psdf.Model, s int) {
	t.Helper()
	sch, err := sched.Extract(m, s)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got := make(map[psdf.ProcessID][]refEntry)
	for _, p := range m.Processes() {
		for _, e := range sch.Program(p) {
			got[p] = append(got[p], refEntry{
				flow: e.Flow, pkg: int(e.Pkg), need: int(e.Need), items: int(e.Items), compute: e.Compute,
			})
			if st := sch.Stages()[e.Stage]; st.Order != sch.Flow(e.Flow).Order {
				t.Errorf("%s: P%d entry %+v filed under stage order %d", label, p, e, st.Order)
			}
		}
	}
	if want := referencePrograms(m, s); !reflect.DeepEqual(got, want) {
		t.Errorf("%s (s=%d): compiled programs\n%+v\nreference\n%+v", label, s, got, want)
	}
}

// packageSizes lists the sizes a document is checked at: its
// platform's, the model's nominal one, and an odd size that leaves
// partial tails.
func packageSizes(doc *dsl.Document) []int {
	sizes := []int{7}
	if doc.Platform != nil && doc.Platform.PackageSize > 0 {
		sizes = append(sizes, doc.Platform.PackageSize)
	}
	if n := doc.Model.NominalPackageSize(); n > 0 {
		sizes = append(sizes, n)
	}
	return sizes
}

func TestProgramMatchesReferenceScenarios(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/scenarios/*.sbd")
	if err != nil {
		t.Fatal(err)
	}
	deadlocks, err := filepath.Glob("../../testdata/scenarios/deadlock/*.sbd")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(append(paths, deadlocks...), "../../testdata/mp3.sbd", "../../testdata/pairs.sbd")
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
		for _, s := range packageSizes(doc) {
			checkProgram(t, filepath.Base(path), doc.Model, s)
		}
	}
}

func TestProgramMatchesReferenceMP3(t *testing.T) {
	for _, s := range []int{9, 18, 36, 72} {
		checkProgram(t, "mp3", apps.MP3Model(), s)
	}
}

func TestProgramMatchesReferenceConform(t *testing.T) {
	gen := conform.NewGenerator(1, nil)
	for i := 0; i < 200; i++ {
		c := gen.Next()
		for _, s := range packageSizes(c.Doc) {
			checkProgram(t, fmt.Sprintf("conform case %d", c.Index), c.Doc.Model, s)
		}
	}
}

func TestProgramMatchesReferenceRandom(t *testing.T) {
	for _, seed := range []int64{1, 6, 2026} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 60; trial++ {
			s := []int{9, 18, 36, 72}[rng.Intn(4)]
			m := apps.RandomModel(rng, 6, 4, s)
			checkProgram(t, fmt.Sprintf("seed %d trial %d", seed, trial), m, s)
		}
	}
}

// FuzzProgram runs the same comparison on arbitrary documents, seeded
// from the conformance generator and the deadlock gallery.
func FuzzProgram(f *testing.F) {
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
		if err != nil || doc.Model == nil || doc.Model.Validate() != nil {
			t.Skip()
		}
		for _, fl := range doc.Model.Flows() {
			// The reference packs (process, order) into 32-bit halves
			// of one key, so it only speaks for values that fit.
			if fl.Source > math.MaxUint32 || fl.Order > math.MaxUint32 {
				t.Skip()
			}
		}
		for _, s := range packageSizes(doc) {
			if doc.Model.TotalPackages(s) > 1<<15 {
				t.Skip() // the quadratic reference would dominate the run
			}
			if _, err := sched.Extract(doc.Model, s); err != nil {
				t.Skip() // outside the table's limits
			}
			checkProgram(t, "fuzz", doc.Model, s)
		}
	})
}
