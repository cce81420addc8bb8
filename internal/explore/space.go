// Package explore is the design-space explorer: it enumerates a
// declarative configuration space (segment counts × mappings ×
// package sizes × protocol overheads) over one application model,
// prunes candidates whose analytic lower bounds are already dominated
// by an emulated point — without emulating them — and emits the
// latency-vs-energy Pareto front of the survivors.
//
// This is the ROADMAP's "estimate the speedup before you build it"
// workflow at production scale: analyze's proven LB ≤ estimate ≤ UB
// latency bounds and power.Profile's run-independent energy bound
// turn most of a 10k-candidate space into arithmetic, and the
// remainder runs on the work-stealing scheduler with pooled emulator
// machines. The output is byte-identical for every worker count; see
// Run for the scheduling and soundness argument.
package explore

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"segbus/internal/core"
	"segbus/internal/parallel"
	"segbus/internal/place"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// Mapping names accepted in Space.Mappings.
const (
	// MappingSolve places processes with place.Solve (the PlaceTool
	// optimizer: exhaustive for small models, seeded local search
	// above that, deterministic tie-breaking throughout).
	MappingSolve = "solve"

	// MappingRoundRobin deals processes to segments in id order — the
	// paper's naive baseline, kept in spaces as the control arm.
	MappingRoundRobin = "round-robin"
)

// Space is the declarative spec of a configuration space: the
// cartesian product of its axes. The zero value of an axis selects
// the documented default, so a spec file only names what it varies.
// Consumed by both the library (Enumerate, Run) and segbus-explore's
// -spec flag.
type Space struct {
	// Name labels the space in reports and platform names.
	Name string `json:"name,omitempty"`

	// Segments lists the segment counts to explore. Required.
	Segments []int `json:"segments"`

	// Mappings lists the placement strategies per segment count:
	// MappingSolve and/or MappingRoundRobin. Default: ["solve"].
	Mappings []string `json:"mappings,omitempty"`

	// PackageSizes lists the platform package sizes. Required.
	PackageSizes []int `json:"package_sizes"`

	// HeaderTicks lists the per-package protocol header costs.
	// Default: [25] (the paper's MP3 figure).
	HeaderTicks []int `json:"header_ticks,omitempty"`

	// CAHopTicks lists the CA circuit set-up costs per hop.
	// Default: [25].
	CAHopTicks []int `json:"ca_hop_ticks,omitempty"`

	// SegmentClocksMHz assigns segment clocks: segment i (1-based)
	// runs at SegmentClocksMHz[(i-1) % len]. Default: [100].
	SegmentClocksMHz []int `json:"segment_clocks_mhz,omitempty"`

	// CAClockMHz is the central arbiter clock. Default: 111 (paper).
	CAClockMHz int `json:"ca_clock_mhz,omitempty"`
}

// Candidate is one enumerated configuration: the axis values and the
// platform of its (segments, mapping, package size) group. Index is
// the candidate's position in enumeration order — the identity every
// deterministic merge keys on.
type Candidate struct {
	Index       int    `json:"index"`
	Label       string `json:"label"`
	Segments    int    `json:"segments"`
	Mapping     string `json:"mapping"`
	PackageSize int    `json:"packageSize"`
	HeaderTicks int    `json:"headerTicks"`
	CAHopTicks  int    `json:"caHopTicks"`

	// Platform is the candidate's own platform: its group's, named
	// Label and carrying the candidate's tick values. It is nil on
	// return from Enumerate; Run builds it just before emulating the
	// candidate, so it is set exactly on emulated points.
	Platform *platform.Platform `json:"-"`

	// group is the platform shared by every candidate of the same
	// (segments, mapping, package size): the same pointer for the
	// whole group, whose members are contiguous in enumeration order.
	// Its Name is the label prefix the members share; its tick fields
	// are zero and read by nobody.
	group *platform.Platform
}

// withDefaults returns a copy with the documented axis defaults
// filled in, or an error for a spec that can never enumerate.
func (s *Space) withDefaults() (Space, error) {
	out := *s
	if len(out.Segments) == 0 {
		return out, fmt.Errorf("explore: space needs at least one segment count")
	}
	for _, n := range out.Segments {
		if n < 1 {
			return out, fmt.Errorf("explore: segment count %d out of range", n)
		}
	}
	if len(out.PackageSizes) == 0 {
		return out, fmt.Errorf("explore: space needs at least one package size")
	}
	for _, ps := range out.PackageSizes {
		if ps < 1 {
			return out, fmt.Errorf("explore: package size %d out of range", ps)
		}
	}
	if len(out.Mappings) == 0 {
		out.Mappings = []string{MappingSolve}
	}
	for _, mp := range out.Mappings {
		if mp != MappingSolve && mp != MappingRoundRobin {
			return out, fmt.Errorf("explore: unknown mapping %q (want %q or %q)", mp, MappingSolve, MappingRoundRobin)
		}
	}
	if len(out.HeaderTicks) == 0 {
		out.HeaderTicks = []int{25}
	}
	if len(out.CAHopTicks) == 0 {
		out.CAHopTicks = []int{25}
	}
	for _, t := range append(append([]int{}, out.HeaderTicks...), out.CAHopTicks...) {
		if t < 0 {
			return out, fmt.Errorf("explore: negative tick value %d", t)
		}
	}
	if len(out.SegmentClocksMHz) == 0 {
		out.SegmentClocksMHz = []int{100}
	}
	for _, c := range out.SegmentClocksMHz {
		if c < 1 {
			return out, fmt.Errorf("explore: segment clock %d MHz out of range", c)
		}
	}
	if out.CAClockMHz == 0 {
		out.CAClockMHz = 111
	}
	if out.CAClockMHz < 1 {
		return out, fmt.Errorf("explore: CA clock %d MHz out of range", out.CAClockMHz)
	}
	if out.Name == "" {
		out.Name = "space"
	}
	return out, nil
}

// Size returns the number of candidates the space enumerates (after
// defaults).
func (s *Space) Size() int {
	sp, err := s.withDefaults()
	if err != nil {
		return 0
	}
	return len(sp.Segments) * len(sp.Mappings) * len(sp.PackageSizes) * len(sp.HeaderTicks) * len(sp.CAHopTicks)
}

// candidateGroup is one (segments, mapping, package size) block of a
// space: the candidates that differ only in their tick axes, listed
// contiguously in enumeration order. They share plat, whose Name is
// their label prefix and whose tick fields are zero.
type candidateGroup struct {
	segments    int
	mapping     string
	packageSize int
	plat        *platform.Platform
}

// groups solves the placement of every (segments, mapping) pair of
// sp, which must carry its defaults, and builds the platform of each
// of the pair's package sizes: one parallel.StealRun task per pair.
// It returns the groups in canonical order (segments ≫ mapping ≫
// package size) with the tasks' summed busy time in nanoseconds, or
// the error the first failing pair in that order meets first.
func (sp *Space) groups(m *psdf.Model, steal parallel.StealOptions) ([]candidateGroup, int64, error) {
	cm := m.CommunicationMatrix()
	caClock := platform.Hz(sp.CAClockMHz) * platform.MHz
	sizes := len(sp.PackageSizes)
	out := make([]candidateGroup, len(sp.Segments)*len(sp.Mappings)*sizes)
	errs := make([]error, len(sp.Segments)*len(sp.Mappings))
	var busyNs atomic.Int64
	parallel.StealRun(len(errs), steal, func(pair int) {
		start := time.Now()
		defer func() { busyNs.Add(time.Since(start).Nanoseconds()) }()
		segs, mapping := sp.Segments[pair/len(sp.Mappings)], sp.Mappings[pair%len(sp.Mappings)]
		var alloc place.Allocation
		var err error
		switch mapping {
		case MappingSolve:
			alloc, err = place.Solve(cm, segs, place.Options{})
		case MappingRoundRobin:
			alloc, err = place.RoundRobin(cm, segs)
		}
		if err != nil {
			errs[pair] = fmt.Errorf("explore: %s mapping onto %d segments: %w", mapping, segs, err)
			return
		}
		clocks := make([]platform.Hz, segs)
		for i := range clocks {
			clocks[i] = platform.Hz(sp.SegmentClocksMHz[i%len(sp.SegmentClocksMHz)]) * platform.MHz
		}
		prefix := sp.Name + "/seg=" + strconv.Itoa(segs) + "/" + mapping + "/s="
		for z, size := range sp.PackageSizes {
			name := prefix + strconv.Itoa(size)
			plat, err := core.PlatformFromAllocation(name, alloc, clocks, caClock, size, 0, 0)
			if err != nil {
				errs[pair] = fmt.Errorf("explore: %s: %w", name, err)
				return
			}
			out[pair*sizes+z] = candidateGroup{segments: segs, mapping: mapping, packageSize: size, plat: plat}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return out, busyNs.Load(), nil
}

// groupSize is the number of members of each group: one per tick
// pair.
func (sp *Space) groupSize() int {
	return len(sp.HeaderTicks) * len(sp.CAHopTicks)
}

// member returns member k of group g, whose candidate index is index:
// the members run through the tick pairs header ticks ≫ CA hop ticks.
func (sp *Space) member(g *candidateGroup, index, k int) Candidate {
	header, hop := sp.HeaderTicks[k/len(sp.CAHopTicks)], sp.CAHopTicks[k%len(sp.CAHopTicks)]
	// The label is built in a stack buffer, so it costs the one
	// allocation of its string.
	var buf [64]byte
	label := append(append(buf[:0], g.plat.Name...), "/h="...)
	label = append(strconv.AppendInt(label, int64(header), 10), "/ca="...)
	label = strconv.AppendInt(label, int64(hop), 10)
	return Candidate{
		Index:       index,
		Label:       string(label),
		Segments:    g.segments,
		Mapping:     g.mapping,
		PackageSize: g.packageSize,
		HeaderTicks: header,
		CAHopTicks:  hop,
		group:       g.plat,
	}
}

// Enumerate expands the space over the model into the full candidate
// list, in the canonical order the explorer's determinism guarantees
// key on: segments (as listed) ≫ mapping ≫ package size ≫ header
// ticks ≫ CA hop ticks. Each (segments, mapping) pair solves its
// placement exactly once, the pairs in parallel, and each (segments,
// mapping, package size) group builds one platform that all its tick
// pairs share; no candidate gets a platform of its own here
// (Candidate.Platform is nil). Run shares the groups step and fills
// the members inside its bounds tasks instead.
//
// The whole space must be feasible: a segment count the model cannot
// populate fails enumeration rather than silently shrinking the
// space.
func (s *Space) Enumerate(m *psdf.Model) ([]Candidate, error) {
	sp, err := s.withDefaults()
	if err != nil {
		return nil, err
	}
	groups, _, err := sp.groups(m, parallel.StealOptions{})
	if err != nil {
		return nil, err
	}
	size := sp.groupSize()
	out := make([]Candidate, len(groups)*size)
	for g := range groups {
		for k := 0; k < size; k++ {
			out[g*size+k] = sp.member(&groups[g], g*size+k, k)
		}
	}
	return out, nil
}

// String renders the space one axis per line, for report headers.
func (s *Space) String() string {
	sp, err := s.withDefaults()
	if err != nil {
		return fmt.Sprintf("invalid space: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "space %s: %d candidates\n", sp.Name, s.Size())
	fmt.Fprintf(&b, "  segments      %v\n", sp.Segments)
	fmt.Fprintf(&b, "  mappings      %v\n", sp.Mappings)
	fmt.Fprintf(&b, "  package sizes %v\n", sp.PackageSizes)
	fmt.Fprintf(&b, "  header ticks  %v\n", sp.HeaderTicks)
	fmt.Fprintf(&b, "  CA hop ticks  %v\n", sp.CAHopTicks)
	fmt.Fprintf(&b, "  clocks        %v MHz (CA %d MHz)\n", sp.SegmentClocksMHz, sp.CAClockMHz)
	return b.String()
}
