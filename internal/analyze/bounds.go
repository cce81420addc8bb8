package analyze

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// CodeBoundsInfo is the informational diagnostic summarising the
// static execution-time bounds (SB201).
const CodeBoundsInfo = "SB201"

// SegmentLoad is the statically computed bus occupancy of one segment:
// the clock ticks its bus spends on package transactions (header plus
// data phases of intra-segment transfers, border-unit fills and
// unloads), and that figure in picoseconds of the segment's clock.
type SegmentLoad struct {
	Segment  int   `json:"segment"`
	BusTicks int64 `json:"busTicks"`
	BusyPs   int64 `json:"busyPs"`
}

// BUCrossing counts the package transfers crossing one border unit in
// each direction over a whole execution.
type BUCrossing struct {
	Name      string `json:"name"`
	Rightward int    `json:"rightward"`
	Leftward  int    `json:"leftward"`
}

// Peak returns the larger directional count (the FIFO pair of a BU
// serves each direction independently).
func (c BUCrossing) Peak() int {
	if c.Leftward > c.Rightward {
		return c.Leftward
	}
	return c.Rightward
}

// Bounds holds the static performance figures of the bounds analyzer:
// provable lower and upper bounds on the estimation-model execution
// time, and the per-element load totals they derive from. The bounds
// are proven against the emulator by property test:
// LowerPs ≤ Report.ExecutionTimePs ≤ UpperPs.
type Bounds struct {
	PackageSize   int `json:"packageSize"`
	TotalPackages int `json:"totalPackages"`

	// CriticalPathPs sums, over the schedule's stages, the largest
	// serial emission chain of any one process in that stage: stages
	// are strict barriers and a functional unit is busy from compute
	// start to package delivery, so no schedule can beat it.
	CriticalPathPs int64 `json:"criticalPathPs"`

	// BusLoadPs is the busiest segment's total bus occupancy; the
	// segment bus serialises its transactions, so it too is a lower
	// bound.
	BusLoadPs int64 `json:"busLoadPs"`

	// LowerPs = max(CriticalPathPs, BusLoadPs).
	LowerPs int64 `json:"lowerPs"`

	// UpperPs assumes full serialisation: every package transfer runs
	// alone on the platform, with a clock-alignment allowance per
	// package and the monitor's end-detection latency on top.
	UpperPs int64 `json:"upperPs"`

	// CASetupTicks totals the CA-clock circuit set-up ticks charged
	// for inter-segment transfers (CAHopTicks per hop per package).
	CASetupTicks int64 `json:"caSetupTicks"`

	Segments  []SegmentLoad `json:"segments"`
	Crossings []BUCrossing  `json:"crossings,omitempty"`
}

// String renders the bounds block of the vet report.
func (b *Bounds) String() string {
	var sb strings.Builder
	sb.WriteString("-- static performance bounds --\n")
	fmt.Fprintf(&sb, "package size %d, %d package transfers\n", b.PackageSize, b.TotalPackages)
	fmt.Fprintf(&sb, "lower bound %d ps (critical path %d ps, peak segment load %d ps)\n",
		b.LowerPs, b.CriticalPathPs, b.BusLoadPs)
	fmt.Fprintf(&sb, "upper bound %d ps (full serialization)\n", b.UpperPs)
	for _, s := range b.Segments {
		fmt.Fprintf(&sb, "Segment %d: %d bus ticks (%d ps busy)\n", s.Segment, s.BusTicks, s.BusyPs)
	}
	fmt.Fprintf(&sb, "CA: %d circuit set-up ticks\n", b.CASetupTicks)
	for _, c := range b.Crossings {
		fmt.Fprintf(&sb, "%s: %d rightward / %d leftward crossing packages\n",
			c.Name, c.Rightward, c.Leftward)
	}
	return sb.String()
}

// The bounds analyzer publishes the static figures as Result.Bounds
// and reports the SB201 summary. It runs only on structurally valid
// (model, platform) pairs; on invalid inputs the structural analyzer
// carries the findings and bounds are meaningless.
func init() {
	Register(&Analyzer{
		Name:          "bounds",
		Doc:           "static bus/CA load totals and execution-time lower/upper bounds",
		NeedsPlatform: true,
		Run:           runBounds,
	})
}

func runBounds(pass *Pass) {
	b, err := ComputeBounds(pass.Model, pass.Platform)
	if err != nil {
		return // structural findings cover invalid inputs
	}
	pass.result.Bounds = b
	pass.Reportf(CodeBoundsInfo, SeverityInfo, "model",
		"static bounds: execution time between %d and %d ps (%d package transfers)",
		b.LowerPs, b.UpperPs, b.TotalPackages)
}

// ComputeBounds derives the static performance figures for model m on
// platform plat under the paper's estimation timing model (zero
// protocol overheads, default end-detection latency). It requires a
// structurally valid pair and returns an error otherwise.
func ComputeBounds(m *psdf.Model, plat *platform.Platform) (*Bounds, error) {
	q, err := NewBoundsQuery(m)
	if err != nil {
		return nil, err
	}
	return q.Bounds(plat)
}

// BoundsQuery answers repeated bounds queries over one model — the
// design-space explorer's seam. A space fixes the application and
// varies the platform. The model is validated once, here, per query;
// Affine validates a platform and prices its bounds as integer
// coefficients in HeaderTicks and CAHopTicks, once per group of
// platforms that differ only in those two fields; each candidate of
// the group then costs one AffineBounds.At. The emission schedule
// depends on the model and the package size only, so the query
// extracts it once per package size and every later platform of that
// size reuses it.
//
// Safe for concurrent use: the model is read-only after construction,
// the schedule memo is guarded by a mutex, and a memoised schedule is
// only read, so explorer workers share one query.
type BoundsQuery struct {
	m *psdf.Model

	mu        sync.Mutex
	schedules map[int]*sched.Schedule // by package size
	// mapped holds the hosted-process sequences (every FU's process,
	// segment by segment, varint-encoded) whose mapping of m
	// ValidateMapping has passed: the platforms of one allocation
	// share that verdict, so the explorer's groups of one (segments,
	// mapping) pair validate it once.
	mapped map[string]bool
}

// NewBoundsQuery validates the model once and returns a query handle.
func NewBoundsQuery(m *psdf.Model) (*BoundsQuery, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("analyze: bounds need a valid model: %w", err)
	}
	return &BoundsQuery{m: m, schedules: make(map[int]*sched.Schedule), mapped: make(map[string]bool)}, nil
}

// checkMapping runs plat.ValidateMapping against the query's model
// unless a platform hosting the same processes in the same order has
// passed it before. Failures are not memoised.
func (q *BoundsQuery) checkMapping(plat *platform.Platform) error {
	var buf [64]byte
	key := buf[:0]
	for _, seg := range plat.Segments {
		for _, fu := range seg.FUs {
			key = binary.AppendVarint(key, int64(fu.Process))
		}
	}
	q.mu.Lock()
	ok := q.mapped[string(key)]
	q.mu.Unlock()
	if ok {
		return nil
	}
	if err := plat.ValidateMapping(q.m); err != nil {
		return err
	}
	q.mu.Lock()
	q.mapped[string(key)] = true
	q.mu.Unlock()
	return nil
}

// schedule returns the model's emission schedule at the package size,
// extracting it on first use. A failed extraction is not memoised.
// Two workers missing on the same size both extract; the first to
// store wins and both return its schedule.
func (q *BoundsQuery) schedule(packageSize int) (*sched.Schedule, error) {
	q.mu.Lock()
	sch, ok := q.schedules[packageSize]
	q.mu.Unlock()
	if ok {
		return sch, nil
	}
	sch, err := sched.Extract(q.m, packageSize)
	if err != nil {
		return nil, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if prev, ok := q.schedules[packageSize]; ok {
		return prev, nil
	}
	q.schedules[packageSize] = sch
	return sch, nil
}

// Bounds computes the static figures of the query's model on one
// candidate platform: its Affine form evaluated at the platform's
// own ticks.
func (q *BoundsQuery) Bounds(plat *platform.Platform) (*Bounds, error) {
	a, err := q.Affine(plat)
	if err != nil {
		return nil, err
	}
	return a.bounds(plat.HeaderTicks, plat.CAHopTicks), nil
}

// affine is the integer form c0 + ch·HeaderTicks + cca·CAHopTicks.
type affine struct{ c0, ch, cca int64 }

func (a affine) plus(b affine) affine {
	return affine{a.c0 + b.c0, a.ch + b.ch, a.cca + b.cca}
}

func (a affine) at(header, caHop int64) int64 {
	return a.c0 + a.ch*header + a.cca*caHop
}

// serialChain is one process's serial emission chain within a stage:
// its summed latency, and the segment (as a 0-based position, which
// Validate makes index-1) that the last transaction of its last
// emission lands on — the source segment of an intra-segment flow,
// else the segment its last hop enters.
type serialChain struct {
	latency affine
	last    int
}

// segmentTerm is one segment's bus occupancy: ticks (affine in the
// header ticks only) at the segment's clock period.
type segmentTerm struct {
	index  int
	ticks  affine
	period int64
}

// AffineBounds is the static bounds of one (model, platform) pair as
// functions of the platform's HeaderTicks and CAHopTicks. Every term
// of the bounds is an integer product linear in the two tick counts
// — a header costs its ticks on every transaction, a CA set-up its
// ticks on every hop — so the coefficients are summed once and the
// ticks substituted before any max is taken: At(h, ca) is exactly the
// Bounds of the same platform with HeaderTicks h and CAHopTicks ca
// (two's-complement sums and products are a ring, so the identity
// holds even where a term would overflow). Read-only after
// construction, so safe for concurrent use.
type AffineBounds struct {
	packageSize   int
	totalPackages int

	// chains holds, per stage in ascending order, each source
	// process's serial emission chain; their order within a stage
	// is irrelevant, as only their max is taken.
	chains   [][]serialChain
	segments []segmentTerm // plat.Segments order
	caPeriod int64
	// upper is the full-serialisation work with the end-detection
	// allowance folded into its constant.
	upper affine
	// caHops counts hops over all packages: CASetupTicks is
	// caHops·CAHopTicks.
	caHops    int64
	crossings []BUCrossing
}

// Affine validates the platform and the mapping and runs the
// coefficient pass: the per-flow, per-package loop of the estimation
// timing model, accumulating each figure as an affine term in the
// platform's HeaderTicks and CAHopTicks. Past validation, which
// rejects negative ticks, the platform's own tick values are never
// read, so one pass serves every platform that differs from plat only
// in those two (non-negative) fields. The pass reads the query's
// schedule for the platform's package size and never writes it.
func (q *BoundsQuery) Affine(plat *platform.Platform) (*AffineBounds, error) {
	m := q.m
	if err := plat.Validate(); err != nil {
		return nil, fmt.Errorf("analyze: bounds need a valid platform: %w", err)
	}
	if err := q.checkMapping(plat); err != nil {
		return nil, fmt.Errorf("analyze: bounds need a complete mapping: %w", err)
	}

	sch, err := q.schedule(plat.PackageSize)
	if err != nil {
		return nil, fmt.Errorf("analyze: bounds: %w", err)
	}
	caPeriod := plat.CAClock.PeriodPs()

	// Validate guarantees segment i carries Index i+1, so both
	// slices are indexed by segment index.
	periods := make([]int64, len(plat.Segments)+1)
	maxPeriod := caPeriod
	for _, seg := range plat.Segments {
		periods[seg.Index] = seg.Clock.PeriodPs()
		if periods[seg.Index] > maxPeriod {
			maxPeriod = periods[seg.Index]
		}
	}

	a := &AffineBounds{packageSize: plat.PackageSize, totalPackages: sch.TotalPackages(), caPeriod: caPeriod}
	segTicks := make([]affine, len(plat.Segments)+1)
	// Every border unit gets an entry, so fully idle BUs still show
	// up as the cold side of an imbalance. BUs() lists unit i as
	// Left i+1.
	for _, bu := range plat.BUs() {
		a.crossings = append(a.crossings, BUCrossing{Name: bu.Name()})
	}

	// Each flow's route: its source segment and the BUs it crosses.
	type flowRoute struct {
		src       int
		route     []platform.BU
		rightward bool
	}
	routes := make([]flowRoute, sch.NumFlows())
	for id, f := range sch.Flows() {
		srcSeg := plat.SegmentOf(f.Source)
		dstSeg := srcSeg
		if f.Target != psdf.SystemOutput {
			dstSeg = plat.SegmentOf(f.Target)
		}
		route, rightward := plat.Route(srcSeg, dstSeg)
		routes[id] = flowRoute{src: srcSeg, route: route, rightward: rightward}
		pk := sch.Packages(sched.FlowID(id))
		for _, bu := range route {
			c := &a.crossings[bu.Left-1]
			if rightward {
				c.Rightward += pk
			} else {
				c.Leftward += pk
			}
		}
	}

	// Serial per-process emission chains, per stage: a program lists
	// a process's emissions stage by stage, so each stage's chain is
	// one run of entries.
	a.chains = make([][]serialChain, sch.NumStages())
	for _, p := range m.Processes() {
		prog := sch.Program(p)
		var chain affine
		for i, e := range prog {
			r := routes[e.Flow]
			hops := int64(len(r.route))
			items := int64(e.Items)
			// A transaction moves header + items ticks.
			tx := affine{c0: items, ch: 1}
			srcPeriod := periods[r.src]
			// FU processing plus the source-segment transaction (an
			// intra-segment transfer or the fill into the first BU),
			// and the CA circuit set-up, charged per hop on the CA
			// clock.
			latency := affine{c0: (e.Compute + items) * srcPeriod, ch: srcPeriod, cca: hops * caPeriod}
			segTicks[r.src] = segTicks[r.src].plus(tx)
			a.caHops += hops
			// One unload transaction per crossed BU, charged on the
			// entered segment's bus and clock.
			last := r.src
			for _, bu := range r.route {
				entered := bu.Right
				if !r.rightward {
					entered = bu.Left
				}
				segTicks[entered] = segTicks[entered].plus(tx)
				latency = latency.plus(affine{c0: items * periods[entered], ch: periods[entered]})
				last = entered
			}
			chain = chain.plus(latency)
			// Full-serialisation allowance: the package's isolated
			// latency plus a clock-edge alignment per scheduling step
			// (compute start, grant, per-hop CA grant and unload
			// grant, delivery), each at most one period of the
			// slowest clock.
			a.upper = a.upper.plus(latency)
			a.upper.c0 += (4 + 3*hops) * maxPeriod
			if i+1 == len(prog) || prog[i+1].Stage != e.Stage {
				a.chains[e.Stage] = append(a.chains[e.Stage], serialChain{latency: chain, last: last - 1})
				chain = affine{}
			}
		}
	}
	for _, seg := range plat.Segments {
		a.segments = append(a.segments, segmentTerm{index: seg.Index, ticks: segTicks[seg.Index], period: periods[seg.Index]})
	}
	// End detection: the monitor adds DetectTicks CA ticks after the
	// last activity, and every arbiter's tick total is rounded up to
	// a full period.
	a.upper.c0 += (emulator.DefaultDetectTicks+1)*caPeriod + maxPeriod
	return a, nil
}

// figures evaluates the critical path, the peak segment load and the
// upper bound at the given ticks. A non-nil sa (one slot per segment,
// plat.Segments order) receives each segment arbiter's TCT lower
// bound; see At.
func (a *AffineBounds) figures(header, caHop int64, sa []int64) (criticalPs, busLoadPs, upperPs int64) {
	// sa first collects each segment's finish bound in picoseconds,
	// then is converted to ticks below.
	clear(sa)
	for _, stage := range a.chains {
		var stageMax int64
		for _, c := range stage {
			end := c.latency.at(header, caHop)
			stageMax = max(stageMax, end)
			if sa != nil {
				sa[c.last] = max(sa[c.last], criticalPs+end)
			}
		}
		criticalPs += stageMax
	}
	for i, seg := range a.segments {
		ticks := seg.ticks.at(header, 0)
		busLoadPs = max(busLoadPs, ticks*seg.period)
		if sa != nil {
			sa[i] = max(ticks, (sa[i]+seg.period-1)/seg.period)
		}
	}
	return criticalPs, busLoadPs, a.upper.at(header, caHop)
}

// At returns the lower and upper execution-time bounds of the pair
// with the platform's HeaderTicks and CAHopTicks replaced by the given
// (non-negative) values, together with lower bounds on the arbiter
// tick counts (TCT) an emulation with the default configuration
// reports: it writes each segment arbiter's bound into saTicks, which
// must hold one slot per segment in plat.Segments order, and returns
// the central arbiter's as caTicks. It allocates nothing.
//
// The arbiter bounds rest on the emulator's section-4 accounting. A
// segment arbiter's TCT is TicksElapsed(lastBusy), the segment's last
// transaction end rounded up to its clock; the CA's is
// TicksElapsed(EndPs) + DetectTicks, with EndPs the last delivery.
//
//   - Bus load: a segment's bus serialises its transactions from time
//     zero and each occupies at least header + items ticks, so
//     lastBusy is at least the segment's bus ticks times its period.
//   - Finish: stages are strict barriers, so stage k starts no
//     earlier than the sum of the earlier stages' largest chains, and
//     a process's stage-k emissions run serially after that. The last
//     one's final transaction therefore ends no earlier than that sum
//     plus the chain, on the segment the chain records — the same
//     argument as CriticalPathPs, carried to the segment it ends on.
//     The SA bound is the larger of the two, in whole ticks.
//   - CA: every transaction ends at or before a delivery (a fill or a
//     forwarding unload is followed by the package's later hops), so
//     lastBusy ≤ EndPs on every segment, which bounds BusLoadPs; the
//     last stage's final delivery bounds CriticalPathPs. So LowerPs ≤
//     EndPs — stronger than LowerPs ≤ ExecutionTimePs — and the CA
//     bound is ceil(LowerPs / CA period) + DefaultDetectTicks.
func (a *AffineBounds) At(headerTicks, caHopTicks int, saTicks []int64) (lowerPs, upperPs, caTicks int64) {
	critical, busLoad, upper := a.figures(int64(headerTicks), int64(caHopTicks), saTicks)
	lowerPs = max(critical, busLoad)
	return lowerPs, upper, (lowerPs+a.caPeriod-1)/a.caPeriod + emulator.DefaultDetectTicks
}

// bounds evaluates the full static figures at the given ticks.
func (a *AffineBounds) bounds(headerTicks, caHopTicks int) *Bounds {
	header, caHop := int64(headerTicks), int64(caHopTicks)
	b := &Bounds{
		PackageSize:   a.packageSize,
		TotalPackages: a.totalPackages,
		CASetupTicks:  a.caHops * caHop,
	}
	b.CriticalPathPs, b.BusLoadPs, b.UpperPs = a.figures(header, caHop, nil)
	b.LowerPs = max(b.CriticalPathPs, b.BusLoadPs)
	for _, seg := range a.segments {
		ticks := seg.ticks.at(header, 0)
		b.Segments = append(b.Segments, SegmentLoad{Segment: seg.index, BusTicks: ticks, BusyPs: ticks * seg.period})
	}
	b.Crossings = append(b.Crossings, a.crossings...)
	return b
}
