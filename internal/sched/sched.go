// Package sched extracts the application schedule from a PSDF model
// and compiles the firing rule every runner reads.
//
// The paper's emulator derives the sequencing of processing and
// transfers from the PSDF ordering numbers and implements it within
// the arbiters (section 3.3, first consideration). This package
// performs that extraction as a pure computation:
//
//   - flows are grouped into stages by ordering number T; stage T
//     becomes active only when every flow of every earlier stage has
//     completed, and all flows of an active stage may run
//     concurrently (section 3.1 on equal ordering numbers);
//
//   - each process's emissions are compiled into a program, one Entry
//     per output package, in canonical flow order. The k-th package a
//     process emits within order T is gated per stage by packet-SDF
//     firing: it may start only after the process has received
//
//     need = ib + ceil(k·is/os)
//
//     input packages, where ib counts its input packages of orders
//     before T, is its input packages of order T, and os its output
//     packages of order T (need = ib when is is zero). The gate is
//     proportional within an order, not over the whole run: inputs of
//     an earlier order are all required before any later-order
//     emission.
//
// Each Entry also carries the package's item count and FU compute
// ticks, so the emulator, the exact deadlock checker (package
// automata) and the static bounds (package analyze) read one table
// rather than deriving the rule themselves.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"segbus/internal/psdf"
)

// FlowID indexes a flow within the schedule's canonical flow order
// (Model.Flows() order: sorted by ordering number, then source, then
// target). It is stable for a given model and the key used by the
// emulator's bookkeeping.
type FlowID int

// Stage is the set of flows sharing one ordering number. All flows of
// a stage may execute concurrently once the stage is active.
type Stage struct {
	Order    int      // the shared ordering number T
	Flows    []FlowID // member flows, in canonical order
	Packages int      // package transfers of the member flows
}

// Entry is one package emission of a process's program: the compiled
// firing rule and cost of that package. The counters are 32-bit to
// keep the table dense; Extract's limits (MaxPackages, a package size
// that fits) keep them in range.
type Entry struct {
	Flow    FlowID
	Pkg     int32 // 1-based package index within the flow
	Stage   int32 // index into Stages of the flow's stage
	Need    int32 // input packages the process must have received first
	Items   int32 // data items carried: the package size, or a partial tail
	Compute int64 // FU compute ticks (see Extract)
}

// program is one emitting process's window into Schedule.entries.
type program struct {
	proc   psdf.ProcessID
	lo, hi int
}

// Schedule is the extracted application schedule: the canonical flow
// list, its partition into stages, per-flow package counts for the
// configured package size, and the per-process emission programs.
type Schedule struct {
	PackageSize int
	flows       []psdf.Flow
	packages    []int // per FlowID
	ids         []FlowID
	stages      []Stage // ascending by Order; Flows are windows of ids
	entries     []Entry // every program, grouped by source process
	programs    []program
	bySrc       []FlowID // compile scratch
}

// MaxPackages caps the package transfers of one schedule: the
// compiled table holds an entry per package, so a model past the cap
// is rejected rather than allocated.
const MaxPackages = 1 << 24

// maxPackageSize is the largest package size an Entry's Items holds.
const maxPackageSize = math.MaxInt32

// Stable diagnostic codes of Extract's input limits.
const (
	CodePackageSizeLimit = "SB033" // package size of 2³¹ or more
	CodePackageLimit     = "SB034" // more than MaxPackages package transfers
)

// LimitError reports an input past one of Extract's limits.
type LimitError struct{ Code, Message string }

// Error implements the error interface.
func (e *LimitError) Error() string { return "sched: " + e.Message }

// CheckLimits returns a *LimitError when Extract refuses flows at the
// given positive package size, and nil otherwise.
func CheckLimits(flows []psdf.Flow, packageSize int) error {
	if packageSize > maxPackageSize {
		return &LimitError{CodePackageSizeLimit, fmt.Sprintf("package size %d exceeds %d", packageSize, maxPackageSize)}
	}
	total := 0
	for _, f := range flows {
		pk := f.Packages(packageSize)
		if pk < 0 || pk > MaxPackages-total { // pk < 0: Items+s overflowed
			return &LimitError{CodePackageLimit, fmt.Sprintf("more than %d package transfers at package size %d", MaxPackages, packageSize)}
		}
		total += pk
	}
	return nil
}

// Extract builds the schedule of model m for the given package size
// and compiles its emission programs. A package carries PackageSize
// items except for a flow's partial tail; its compute ticks are the
// flow's C value, rescaled by the package's item share of the model's
// nominal package size when one is declared (work is a property of
// the data, not of the packaging). The model should have been
// validated first; Extract itself only requires a positive package
// size below 2³¹ and at most MaxPackages package transfers.
func Extract(m *psdf.Model, packageSize int) (*Schedule, error) {
	s := new(Schedule)
	if err := s.Reset(m, packageSize); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-extracts s for model m and the given package size, as
// Extract does, but into s's own storage: its slices keep their
// capacity, so a caller extracting once per run (the emulator's
// machines) allocates only when a larger model arrives. Slices handed
// out by s before the call are overwritten. On error s is unchanged.
func (s *Schedule) Reset(m *psdf.Model, packageSize int) error {
	if packageSize <= 0 {
		return fmt.Errorf("sched: non-positive package size %d", packageSize)
	}
	flows := m.Flows()
	if err := CheckLimits(flows, packageSize); err != nil {
		return err
	}
	s.PackageSize = packageSize
	s.flows = flows
	n := len(flows)
	s.packages = slices.Grow(s.packages[:0], n)[:n]
	s.ids = slices.Grow(s.ids[:0], n)[:n]
	distinct, total := 0, 0
	for i, f := range flows {
		s.packages[i] = f.Packages(packageSize)
		total += s.packages[i]
		s.ids[i] = FlowID(i)
		if i == 0 || f.Order != flows[i-1].Order {
			distinct++
		}
	}
	// Stage partition: the canonical flow list is sorted by order, so
	// each stage is a window of the id array.
	s.stages = slices.Grow(s.stages[:0], distinct)
	for lo := 0; lo < n; {
		st := Stage{Order: flows[lo].Order}
		hi := lo
		for hi < n && flows[hi].Order == st.Order {
			st.Packages += s.packages[hi]
			hi++
		}
		st.Flows = s.ids[lo:hi:hi]
		s.stages = append(s.stages, st)
		lo = hi
	}
	s.compile(m.NominalPackageSize(), total)
	return nil
}

// compile builds the emission programs: each source process's flows
// in canonical order, one entry per package.
func (s *Schedule) compile(nominal, total int) {
	bySrc := append(s.bySrc[:0], s.ids...)
	s.bySrc = bySrc
	// Stable, so a process's flows keep their canonical order — and
	// its flows of one order stay adjacent.
	slices.SortStableFunc(bySrc, func(a, b FlowID) int {
		return cmp.Compare(s.flows[a].Source, s.flows[b].Source)
	})
	emitters := 0
	for i, id := range bySrc {
		if i == 0 || s.flows[id].Source != s.flows[bySrc[i-1]].Source {
			emitters++
		}
	}
	s.entries = slices.Grow(s.entries[:0], total)
	s.programs = slices.Grow(s.programs[:0], emitters)
	for lo := 0; lo < len(bySrc); {
		first := s.flows[bySrc[lo]]
		p, order := first.Source, first.Order
		hi, os := lo, 0
		for hi < len(bySrc) && s.flows[bySrc[hi]].Source == p && s.flows[bySrc[hi]].Order == order {
			os += s.packages[bySrc[hi]]
			hi++
		}
		if n := len(s.programs); n == 0 || s.programs[n-1].proc != p {
			s.programs = append(s.programs, program{proc: p, lo: len(s.entries)})
		}
		ib, is := s.inputs(p, order)
		stage := s.stageIndex(order)
		k := 0
		for _, id := range bySrc[lo:hi] {
			f := s.flows[id]
			for pkg := 1; pkg <= s.packages[id]; pkg++ {
				k++
				need := ib
				if is > 0 && os > 0 {
					need = ib + (k*is+os-1)/os
				}
				items := min(f.Items-(pkg-1)*s.PackageSize, s.PackageSize)
				compute := int64(f.Ticks)
				if nominal > 0 {
					compute = (compute*int64(items) + int64(nominal) - 1) / int64(nominal)
				}
				s.entries = append(s.entries, Entry{
					Flow: id, Pkg: int32(pkg), Stage: int32(stage), Need: int32(need), Items: int32(items), Compute: compute,
				})
			}
		}
		s.programs[len(s.programs)-1].hi = len(s.entries)
		lo = hi
	}
}

// inputs returns the input package totals process p's firing gates
// for order are derived from: inBefore on earlier orders, inSame on
// the same order.
func (s *Schedule) inputs(p psdf.ProcessID, order int) (inBefore, inSame int) {
	for i, f := range s.flows {
		if f.Order > order {
			break // canonical order: no later flow is earlier
		}
		if f.Target != p {
			continue
		}
		if f.Order < order {
			inBefore += s.packages[i]
		} else {
			inSame += s.packages[i]
		}
	}
	return inBefore, inSame
}

// stageIndex returns the index of the stage with the given order.
func (s *Schedule) stageIndex(order int) int {
	i, _ := slices.BinarySearchFunc(s.stages, order, func(st Stage, order int) int {
		return cmp.Compare(st.Order, order)
	})
	return i
}

// Flows returns the canonical flow list. The slice must not be
// mutated.
func (s *Schedule) Flows() []psdf.Flow { return s.flows }

// Flow returns the flow with the given id.
func (s *Schedule) Flow(id FlowID) psdf.Flow { return s.flows[id] }

// NumFlows returns the number of flows in the schedule.
func (s *Schedule) NumFlows() int { return len(s.flows) }

// Packages returns the number of packages flow id transfers.
func (s *Schedule) Packages(id FlowID) int { return s.packages[id] }

// TotalPackages returns the total number of package transfers in the
// schedule.
func (s *Schedule) TotalPackages() int { return len(s.entries) }

// Stages returns the ordered stage list. The slice must not be
// mutated.
func (s *Schedule) Stages() []Stage { return s.stages }

// NumStages returns the number of stages.
func (s *Schedule) NumStages() int { return len(s.stages) }

// Program returns process p's emission program, in emission order:
// empty for a process that emits nothing. The slice is a window of
// the schedule's shared table and must not be mutated.
func (s *Schedule) Program(p psdf.ProcessID) []Entry {
	i, ok := slices.BinarySearchFunc(s.programs, p, func(pr program, p psdf.ProcessID) int {
		return cmp.Compare(pr.proc, p)
	})
	if !ok {
		return nil
	}
	pr := s.programs[i]
	return s.entries[pr.lo:pr.hi:pr.hi]
}

// Validate cross-checks the schedule's internal consistency. It is
// used by property tests and returns a descriptive error on the first
// inconsistency found.
func (s *Schedule) Validate() error {
	seen := make(map[FlowID]bool)
	prevOrder := -1 << 62
	for _, st := range s.stages {
		if st.Order <= prevOrder {
			return fmt.Errorf("sched: stage orders not strictly increasing (%d after %d)", st.Order, prevOrder)
		}
		prevOrder = st.Order
		if len(st.Flows) == 0 {
			return fmt.Errorf("sched: empty stage with order %d", st.Order)
		}
		for _, id := range st.Flows {
			if int(id) < 0 || int(id) >= len(s.flows) {
				return fmt.Errorf("sched: stage %d references unknown flow %d", st.Order, id)
			}
			if s.flows[id].Order != st.Order {
				return fmt.Errorf("sched: flow %v filed under stage %d", s.flows[id], st.Order)
			}
			if seen[id] {
				return fmt.Errorf("sched: flow %d appears in two stages", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != len(s.flows) {
		return fmt.Errorf("sched: %d flows staged, model has %d", len(seen), len(s.flows))
	}
	return nil
}
