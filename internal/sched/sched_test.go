package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"segbus/internal/psdf"
)

func chain() *psdf.Model {
	m := psdf.NewModel("chain")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 72, Order: 1, Ticks: 10})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 2, Ticks: 20})
	return m
}

func TestExtractBasics(t *testing.T) {
	s, err := Extract(chain(), 36)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumFlows() != 2 {
		t.Fatalf("NumFlows() = %d", s.NumFlows())
	}
	if s.NumStages() != 2 {
		t.Fatalf("NumStages() = %d", s.NumStages())
	}
	if got := s.Packages(0); got != 2 {
		t.Errorf("Packages(0) = %d, want 2", got)
	}
	if got := s.Packages(1); got != 1 {
		t.Errorf("Packages(1) = %d, want 1", got)
	}
	if got := s.TotalPackages(); got != 3 {
		t.Errorf("TotalPackages() = %d, want 3", got)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("Validate(): %v", err)
	}
}

func TestExtractRejectsBadPackageSize(t *testing.T) {
	if _, err := Extract(chain(), 0); err == nil {
		t.Error("Extract with package size 0 succeeded")
	}
	if _, err := Extract(chain(), -5); err == nil {
		t.Error("Extract with negative package size succeeded")
	}
	if _, err := Extract(chain(), math.MaxInt32+1); err == nil {
		t.Error("Extract with a package size past an Entry's Items succeeded")
	}
}

func TestExtractRejectsTooManyPackages(t *testing.T) {
	// The count is checked before anything is allocated.
	m := psdf.NewModel("huge")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: MaxPackages / 2, Order: 1})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: MaxPackages/2 + 1, Order: 2})
	if _, err := Extract(m, 1); err == nil {
		t.Error("Extract past MaxPackages succeeded")
	}
	overflow := psdf.NewModel("overflow")
	overflow.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: math.MaxInt, Order: 1})
	if _, err := Extract(overflow, 2); err == nil {
		t.Error("Extract with an overflowing package count succeeded")
	}
}

// TestResetReusesStorage: re-extracting into a schedule that held a
// larger model gives exactly what a fresh Extract gives, and a failed
// Reset leaves the schedule as it was.
func TestResetReusesStorage(t *testing.T) {
	big := psdf.NewModel("big")
	big.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 360, Order: 1, Ticks: 4})
	big.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 180, Order: 1, Ticks: 2})
	big.AddFlow(psdf.Flow{Source: 2, Target: 3, Items: 90, Order: 3, Ticks: 1})
	s, err := Extract(big, 36)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Reset(chain(), 36); err != nil {
		t.Fatal(err)
	}
	fresh, err := Extract(chain(), 36)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(s.Flows(), fresh.Flows()) || !reflect.DeepEqual(s.Stages(), fresh.Stages()) {
			t.Errorf("%s: stages %+v, fresh %+v", when, s.Stages(), fresh.Stages())
		}
		for _, p := range []psdf.ProcessID{0, 1, 2, 3} {
			if got, want := s.Program(p), fresh.Program(p); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Program(P%d) = %+v, fresh %+v", when, p, got, want)
			}
		}
	}
	check("after Reset")
	if err := s.Reset(big, 0); err == nil {
		t.Fatal("Reset with package size 0 succeeded")
	}
	check("after a failed Reset")
}

func TestStagesGroupByOrder(t *testing.T) {
	m := psdf.NewModel("grouped")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1})
	m.AddFlow(psdf.Flow{Source: 0, Target: 2, Items: 36, Order: 1})
	m.AddFlow(psdf.Flow{Source: 1, Target: 3, Items: 36, Order: 5})
	m.AddFlow(psdf.Flow{Source: 2, Target: 3, Items: 36, Order: 5})
	s, err := Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	stages := s.Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %v", stages)
	}
	if stages[0].Order != 1 || len(stages[0].Flows) != 2 {
		t.Errorf("stage 0 = %+v", stages[0])
	}
	if stages[1].Order != 5 || len(stages[1].Flows) != 2 {
		t.Errorf("stage 1 = %+v", stages[1])
	}
	if stages[0].Packages != 2 || stages[1].Packages != 2 {
		t.Errorf("stage package totals = %d, %d, want 2, 2", stages[0].Packages, stages[1].Packages)
	}
	for _, p := range []psdf.ProcessID{0, 1, 2} {
		for _, e := range s.Program(p) {
			if stages[e.Stage].Order != s.Flow(e.Flow).Order {
				t.Errorf("P%d entry %+v filed under stage %d", p, e, e.Stage)
			}
		}
	}
}

func TestInputOutputPackages(t *testing.T) {
	m := psdf.NewModel("inout")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 72, Order: 1})  // 2 pkgs
	m.AddFlow(psdf.Flow{Source: 0, Target: 2, Items: 36, Order: 1})  // 1 pkg
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 108, Order: 2}) // 3 pkgs
	s, err := Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	// A program holds one entry per output package.
	for p, want := range map[psdf.ProcessID]int{0: 3, 1: 3, 2: 0} {
		if got := len(s.Program(p)); got != want {
			t.Errorf("len(Program(P%d)) = %d, want %d", p, got, want)
		}
	}
	// P1's inputs all arrive on an earlier order, so every emission
	// needs the whole input count.
	for _, e := range s.Program(1) {
		if e.Need != 2 {
			t.Errorf("P1 entry %+v: need %d, want its 2 input packages", e, e.Need)
		}
	}
	if got := s.TotalPackages(); got != 6 {
		t.Errorf("TotalPackages() = %d, want 6", got)
	}
}

func TestInputsRequiredProportional(t *testing.T) {
	// Within one order P1 consumes 4 packages and produces 2: emission
	// k requires ceil(k*4/2) inputs.
	m := psdf.NewModel("prop")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 144, Order: 1}) // 4 pkgs in
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 72, Order: 1})  // 2 pkgs out
	s, err := Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	prog := s.Program(1)
	if len(prog) != 2 || prog[0].Need != 2 || prog[1].Need != 4 {
		t.Errorf("Program(P1) = %+v, want needs 2, 4", prog)
	}
}

func TestInputsRequiredSourceIsZero(t *testing.T) {
	s, err := Extract(chain(), 36)
	if err != nil {
		t.Fatal(err)
	}
	prog := s.Program(0)
	if len(prog) != 2 {
		t.Fatalf("Program(source) has %d entries, want 2", len(prog))
	}
	for _, e := range prog {
		if e.Need != 0 {
			t.Errorf("source entry %+v: need %d, want 0", e, e.Need)
		}
	}
}

func TestInputsRequiredMonotonic(t *testing.T) {
	// Property: along a program the gate never decreases, never
	// exceeds the inputs of the entry's order and earlier, and the
	// order's last emission requires all of them.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		m := psdf.NewModel("mono")
		inPkgs := 1 + rng.Intn(20)
		outPkgs := 1 + rng.Intn(20)
		outOrder := 1 + rng.Intn(2) // same order or the next one
		m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36 * inPkgs, Order: 1})
		m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36 * outPkgs, Order: outOrder})
		s, err := Extract(m, 36)
		if err != nil {
			t.Fatal(err)
		}
		prog := s.Program(1)
		if len(prog) != outPkgs {
			t.Fatalf("Program(P1) has %d entries, want %d", len(prog), outPkgs)
		}
		prev := 0
		for k, e := range prog {
			need := int(e.Need)
			if need < prev {
				t.Fatalf("gate decreased: k=%d got=%d prev=%d", k+1, need, prev)
			}
			if need > inPkgs {
				t.Fatalf("gate exceeds inputs: k=%d got=%d in=%d", k+1, need, inPkgs)
			}
			prev = need
		}
		if prev != inPkgs {
			t.Fatalf("final emission must require all inputs: got %d want %d", prev, inPkgs)
		}
	}
}

// TestProgram pins compiled programs entry by entry: package indices,
// stage indices, per-stage gates, partial tails and compute ticks
// rescaled to the nominal package size.
func TestProgram(t *testing.T) {
	type flow = psdf.Flow
	for _, tc := range []struct {
		name    string
		flows   []flow
		nominal int
		size    int
		want    map[psdf.ProcessID][]Entry
	}{
		{
			// P1 consumes 4 packages on order 1 and emits 2 on order
			// 2. A whole-run gate ceil(k·I/O) would let its first
			// emission go after 2 inputs; the per-stage gate waits for
			// all 4 inputs of the earlier order.
			name: "two orders: whole-run vs per-stage gate",
			flows: []flow{
				{Source: 0, Target: 1, Items: 144, Order: 1, Ticks: 10},
				{Source: 1, Target: 2, Items: 72, Order: 2, Ticks: 20},
			},
			size: 36,
			want: map[psdf.ProcessID][]Entry{
				0: {
					{Flow: 0, Pkg: 1, Stage: 0, Need: 0, Items: 36, Compute: 10},
					{Flow: 0, Pkg: 2, Stage: 0, Need: 0, Items: 36, Compute: 10},
					{Flow: 0, Pkg: 3, Stage: 0, Need: 0, Items: 36, Compute: 10},
					{Flow: 0, Pkg: 4, Stage: 0, Need: 0, Items: 36, Compute: 10},
				},
				1: {
					{Flow: 1, Pkg: 1, Stage: 1, Need: 4, Items: 36, Compute: 20},
					{Flow: 1, Pkg: 2, Stage: 1, Need: 4, Items: 36, Compute: 20},
				},
			},
		},
		{
			// Same-order pipeline with a second, later input: P1's
			// order-1 emissions interleave with its order-1 inputs;
			// its order-2 emission waits for both orders' inputs. The
			// 50-item flow leaves a 14-item tail.
			name: "same-order share, earlier-order base, partial tail",
			flows: []flow{
				{Source: 0, Target: 1, Items: 108, Order: 1, Ticks: 6},
				{Source: 1, Target: 3, Items: 50, Order: 1, Ticks: 4},
				{Source: 2, Target: 1, Items: 36, Order: 1, Ticks: 3},
				{Source: 1, Target: 3, Items: 36, Order: 2, Ticks: 8},
			},
			size: 36,
			want: map[psdf.ProcessID][]Entry{
				0: {
					{Flow: 0, Pkg: 1, Stage: 0, Need: 0, Items: 36, Compute: 6},
					{Flow: 0, Pkg: 2, Stage: 0, Need: 0, Items: 36, Compute: 6},
					{Flow: 0, Pkg: 3, Stage: 0, Need: 0, Items: 36, Compute: 6},
				},
				1: {
					{Flow: 1, Pkg: 1, Stage: 0, Need: 2, Items: 36, Compute: 4},
					{Flow: 1, Pkg: 2, Stage: 0, Need: 4, Items: 14, Compute: 4},
					{Flow: 3, Pkg: 1, Stage: 1, Need: 4, Items: 36, Compute: 8},
				},
				2: {
					{Flow: 2, Pkg: 1, Stage: 0, Need: 0, Items: 36, Compute: 3},
				},
			},
		},
		{
			// Nominal package size 36 at package size 24: each package
			// costs ceil(C·items/36), the 12-item tail included.
			name: "compute rescaled to the nominal package size",
			flows: []flow{
				{Source: 0, Target: 1, Items: 60, Order: 1, Ticks: 10},
			},
			nominal: 36,
			size:    24,
			want: map[psdf.ProcessID][]Entry{
				0: {
					{Flow: 0, Pkg: 1, Stage: 0, Need: 0, Items: 24, Compute: 7},
					{Flow: 0, Pkg: 2, Stage: 0, Need: 0, Items: 24, Compute: 7},
					{Flow: 0, Pkg: 3, Stage: 0, Need: 0, Items: 12, Compute: 4},
				},
			},
		},
	} {
		m := psdf.NewModel(tc.name)
		m.SetNominalPackageSize(tc.nominal)
		for _, f := range tc.flows {
			m.AddFlow(f)
		}
		s, err := Extract(m, tc.size)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, p := range m.Processes() {
			if got := s.Program(p); !reflect.DeepEqual(got, tc.want[p]) && len(got)+len(tc.want[p]) > 0 {
				t.Errorf("%s: Program(P%d) =\n%+v\nwant\n%+v", tc.name, p, got, tc.want[p])
			}
		}
	}
}

func TestScheduleValidateCatchesCorruption(t *testing.T) {
	s, err := Extract(chain(), 36)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: swap the stage orders.
	s.stages[0].Order, s.stages[1].Order = s.stages[1].Order, s.stages[0].Order
	if err := s.Validate(); err == nil {
		t.Error("Validate() accepted corrupted stage order")
	}
}

func TestScheduleFlowsCanonicalOrder(t *testing.T) {
	m := psdf.NewModel("canon")
	m.AddFlow(psdf.Flow{Source: 3, Target: 4, Items: 36, Order: 2})
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1})
	m.AddFlow(psdf.Flow{Source: 1, Target: 3, Items: 36, Order: 1})
	s, err := Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	fs := s.Flows()
	if fs[0].Source != 0 || fs[1].Source != 1 || fs[2].Source != 3 {
		t.Errorf("canonical order violated: %v", fs)
	}
	for i := range fs {
		if s.Flow(FlowID(i)) != fs[i] {
			t.Errorf("Flow(%d) mismatch", i)
		}
	}
}

func TestExtractPartialFinalPackage(t *testing.T) {
	m := psdf.NewModel("ragged")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 37, Order: 1})
	s, err := Extract(m, 36)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Packages(0); got != 2 {
		t.Errorf("37 items in 36-item packages = %d, want 2", got)
	}
}
