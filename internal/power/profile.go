package power

import (
	"fmt"

	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// Profile is the run-independent activity of a (model, platform)
// pair: the traffic and compute figures that are fully determined by
// the model's flows and the bus topology before any emulation
// happens. Estimate derives its bus and compute energies from exactly
// these figures; the design-space explorer uses them, together with
// analyze's latency and arbiter-tick lower bounds, to lower-bound a
// candidate's energy without emulating it.
//
// The compute figure is charged per flow as ceil(C·Items/nominal)
// (C per package when the model declares no nominal package size).
// That is the emulator's charge only when the package size equals the
// nominal one: the emulator rescales each package separately and
// rounds each up, so at other package sizes its per-package sum can
// exceed this figure. That keeps the energy lower bound sound, and
// Estimate prices compute with the same figure.
type Profile struct {
	params   Params
	segments int
	// Indexed by 1-based segment index; slot 0 collects processes no
	// segment hosts.
	busItems  []int64 // items moved on each segment's bus
	compTicks []int64 // compute ticks of each segment's FUs
	buItems   []int64 // items crossing each BU, indexed by its Left segment

	segOrder []int         // plat.Segments order, for float-stable summation
	buOrder  []platform.BU // plat.BUs() order, matching the report's grouping
}

// NewProfile extracts the activity profile. The Params fix the
// coefficients the bounds will be priced with (zero selects
// DefaultParams, like Estimate).
func NewProfile(m *psdf.Model, plat *platform.Platform, params Params) (*Profile, error) {
	if params.zero() {
		params = DefaultParams
	}
	if plat.PackageSize <= 0 {
		return nil, fmt.Errorf("power: non-positive package size %d", plat.PackageSize)
	}
	n := plat.NumSegments() + 1
	pf := &Profile{
		params:    params,
		segments:  plat.NumSegments(),
		busItems:  make([]int64, n),
		compTicks: make([]int64, n),
		buItems:   make([]int64, n),
	}
	nominal := m.NominalPackageSize()
	for _, f := range m.Flows() {
		src := plat.SegmentOf(f.Source)
		dst := src
		if f.Target != psdf.SystemOutput {
			dst = plat.SegmentOf(f.Target)
		}
		// Identical attribution to Estimate: every item occupies the
		// bus of every segment on its route, and crosses every BU on
		// the route once (the emulator's BU load ticks count exactly
		// one tick per item loaded, which TestProfileMatchesRun pins).
		route, _ := plat.Route(src, dst)
		pf.busItems[src] += int64(f.Items)
		for _, bu := range route {
			next := bu.Left
			if src < dst {
				next = bu.Right
			}
			pf.busItems[next] += int64(f.Items)
			pf.buItems[bu.Left] += int64(f.Items)
		}
		pkgs := f.Packages(plat.PackageSize)
		var ticks int64
		if nominal > 0 {
			ticks = (int64(f.Ticks)*int64(f.Items) + int64(nominal) - 1) / int64(nominal)
		} else {
			ticks = int64(f.Ticks) * int64(pkgs)
		}
		pf.compTicks[src] += ticks
	}
	for _, seg := range plat.Segments {
		pf.segOrder = append(pf.segOrder, seg.Index)
	}
	pf.buOrder = plat.BUs()
	return pf, nil
}

// TotalBusItems returns the summed per-segment bus traffic — a cheap
// run-independent congestion figure for reports.
func (pf *Profile) TotalBusItems() int64 {
	var n int64
	for _, v := range pf.busItems {
		n += v
	}
	return n
}

// TotalBUItems returns the summed border-unit crossings.
func (pf *Profile) TotalBUItems() int64 {
	var n int64
	for _, bu := range pf.buOrder {
		n += pf.buItems[bu.Left]
	}
	return n
}

// LowerBoundPJ returns a provable lower bound on the TotalPJ of any
// run of this pair that executes in at least latencyLBPs picoseconds
// and whose arbiters count at least saTicks (one entry per segment,
// in plat.Segments order) and caTicks clock ticks. analyze's
// AffineBounds.At supplies all three figures for an emulation with
// the default configuration:
//
//   - bus, BU and compute energies are run-independent and counted
//     exactly as Estimate counts them;
//   - arbiter activity (SA, CA) is priced at the tick lower bounds,
//     each at most the TCT Estimate prices;
//   - static leakage is monotone in the run time, so pricing it at
//     the latency lower bound bounds it below.
//
// Soundness down to the last ULP: the terms are accumulated in the
// same order as Estimate's (bus + SA + compute per segment, then the
// BUs, then the CA), each term is at most its counterpart there, and
// IEEE-754 round-to-nearest conversion, product and sum are monotone
// for the non-negative coefficients, so the float result can never
// exceed Estimate's TotalPJ for the same pair. The explorer's energy
// bound soundness tests exercise this across generated spaces.
func (pf *Profile) LowerBoundPJ(latencyLBPs int64, saTicks []int64, caTicks int64) float64 {
	var dynamic float64
	for i, seg := range pf.segOrder {
		busPJ := float64(pf.busItems[seg]) * pf.params.BusPJPerItem
		saPJ := float64(saTicks[i]) * pf.params.SAPJPerTick
		computePJ := float64(pf.compTicks[seg]) * pf.params.FUPJPerTick
		dynamic += busPJ + saPJ + computePJ
	}
	for _, bu := range pf.buOrder {
		dynamic += float64(pf.buItems[bu.Left]) * pf.params.BUPJPerItem
	}
	dynamic += float64(caTicks) * pf.params.CAPJPerTick

	runSeconds := float64(latencyLBPs) * 1e-12
	staticPJ := pf.params.StaticUWPerSeg * 1e-6 * float64(pf.segments) * runSeconds * 1e12
	return dynamic + staticPJ
}
