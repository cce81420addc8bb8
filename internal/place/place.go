// Package place is the PlaceTool substitute of the tool-chain: given
// an application's communication matrix and a segment count, it finds
// a device allocation for the linear SegBus topology (section 3.5 of
// the paper; the original tool is the paper's reference [16],
// "Improving the Performance of Bus Platforms by Means of Segmentation
// and Optimized Resource Allocation").
//
// The objective (Score) is the sum of squared per-segment bus loads:
// an intra-segment data item occupies one bus, an inter-segment item
// occupies every bus on its route, and squaring drives the optimizer
// towards balanced segments — segmentation only pays off when local
// traffic proceeds in parallel. The hop-weighted inter-segment traffic
// (Cost) is reported as a secondary metric. Small instances are solved
// exactly by exhaustive enumeration; larger ones by local search
// (relocations and pairwise swaps to a fixed point) from two seeds, a
// traffic-greedy construction and a balanced round-robin deal.
package place

import (
	"fmt"
	"math/rand"
	"sort"

	"segbus/internal/psdf"
)

// Allocation maps each process to a segment index in [0, Segments).
// Segment indices here are zero-based; platform construction shifts
// them to the platform's 1-based convention.
type Allocation struct {
	Segments int
	Of       map[psdf.ProcessID]int
}

// Clone returns a deep copy of the allocation.
func (a Allocation) Clone() Allocation {
	c := Allocation{Segments: a.Segments, Of: make(map[psdf.ProcessID]int, len(a.Of))}
	for p, s := range a.Of {
		c.Of[p] = s
	}
	return c
}

// Valid reports whether every process maps into range and every
// segment hosts at least one process.
func (a Allocation) Valid() bool {
	if a.Segments < 1 {
		return false
	}
	used := make([]bool, a.Segments)
	for _, s := range a.Of {
		if s < 0 || s >= a.Segments {
			return false
		}
		used[s] = true
	}
	for _, u := range used {
		if !u {
			return false
		}
	}
	return len(used) > 0 && len(a.Of) >= a.Segments
}

// ProcessesOn returns the processes mapped to segment s, ascending.
func (a Allocation) ProcessesOn(s int) []psdf.ProcessID {
	var out []psdf.ProcessID
	for p, seg := range a.Of {
		if seg == s {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the allocation Figure 9 style: processes per segment
// separated by "||".
func (a Allocation) String() string {
	s := ""
	for seg := 0; seg < a.Segments; seg++ {
		if seg > 0 {
			s += " || "
		}
		for i, p := range a.ProcessesOn(seg) {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprintf("%d", int(p))
		}
	}
	return s
}

// BusLoads returns the per-segment bus occupancy of the allocation in
// data items: an intra-segment item occupies its own segment's bus
// once, while an inter-segment item occupies the bus of every segment
// on its route (fill on the source, one forward per transit segment,
// delivery on the destination).
func BusLoads(cm *psdf.CommMatrix, a Allocation) []int64 {
	loads := make([]int64, a.Segments)
	n := cm.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := cm.At(psdf.ProcessID(i), psdf.ProcessID(j))
			if v == 0 {
				continue
			}
			si, oki := a.Of[psdf.ProcessID(i)]
			sj, okj := a.Of[psdf.ProcessID(j)]
			if !oki || !okj {
				continue
			}
			lo, hi := si, sj
			if lo > hi {
				lo, hi = hi, lo
			}
			for s := lo; s <= hi; s++ {
				loads[s] += int64(v)
			}
		}
	}
	return loads
}

// Score is the optimizer's objective: the sum of squared per-segment
// bus loads. Squaring pushes towards balanced segments (the point of
// segmenting the bus is parallel local traffic) while still penalising
// inter-segment transfers, which occupy every bus along their route.
// Lower is better.
func Score(cm *psdf.CommMatrix, a Allocation) int64 {
	var score int64
	for _, l := range BusLoads(cm, a) {
		score += l * l
	}
	return score
}

// Cost returns the hop-weighted inter-segment traffic of the
// allocation: for every matrix entry, items × |seg(src) − seg(dst)|
// (the number of border units the data crosses on the linear
// topology). It is the secondary quality metric reported alongside
// Score.
func Cost(cm *psdf.CommMatrix, a Allocation) int64 {
	var cost int64
	n := cm.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := cm.At(psdf.ProcessID(i), psdf.ProcessID(j))
			if v == 0 {
				continue
			}
			si, oki := a.Of[psdf.ProcessID(i)]
			sj, okj := a.Of[psdf.ProcessID(j)]
			if !oki || !okj {
				continue
			}
			d := si - sj
			if d < 0 {
				d = -d
			}
			cost += int64(v) * int64(d)
		}
	}
	return cost
}

// Options tunes the optimizer.
type Options struct {
	// MaxExhaustive is the largest number of processes solved by
	// exhaustive enumeration (the search space is segments^processes,
	// cut by symmetry). Above it the greedy + local-search heuristic
	// runs. Zero selects a default of 10.
	MaxExhaustive int

	// MaxLoad caps the number of processes per segment; zero means
	// no cap beyond "every segment non-empty".
	MaxLoad int

	// Pinned fixes processes to segments before optimization: the
	// solver places only the remaining processes. Pins to
	// out-of-range segments are rejected by Solve.
	Pinned map[psdf.ProcessID]int
}

// Solve finds a low-cost allocation of the matrix's communicating
// processes onto the given number of segments. Only processes that
// send or receive at least one data item are placed; fully silent
// process slots in the matrix are ignored.
func Solve(cm *psdf.CommMatrix, segments int, opts Options) (Allocation, error) {
	if segments < 1 {
		return Allocation{}, fmt.Errorf("place: need at least one segment, got %d", segments)
	}
	procs := activeProcesses(cm)
	if len(procs) == 0 {
		return Allocation{}, fmt.Errorf("place: communication matrix has no traffic")
	}
	if len(procs) < segments {
		return Allocation{}, fmt.Errorf("place: %d processes cannot populate %d segments", len(procs), segments)
	}
	if opts.MaxExhaustive == 0 {
		opts.MaxExhaustive = 10
	}
	if opts.MaxLoad > 0 && opts.MaxLoad*segments < len(procs) {
		return Allocation{}, fmt.Errorf("place: load cap %d too small for %d processes on %d segments",
			opts.MaxLoad, len(procs), segments)
	}
	for p, s := range opts.Pinned {
		if s < 0 || s >= segments {
			return Allocation{}, fmt.Errorf("place: %s pinned to segment %d, out of range [0,%d)", p, s, segments)
		}
	}
	if segments == 1 {
		a := Allocation{Segments: 1, Of: make(map[psdf.ProcessID]int)}
		for _, p := range procs {
			a.Of[p] = 0
		}
		return a, nil
	}
	if len(procs) <= opts.MaxExhaustive {
		return exhaustive(cm, procs, segments, opts), nil
	}
	// Heuristic path: local search from several seeds — the
	// traffic-greedy construction, the balanced round-robin deal, and
	// a handful of deterministic pseudo-random restarts — keeping the
	// best fixed point. The restart PRNG is fixed-seeded and the race
	// winner is picked by the documented deterministic order (see
	// better), so Solve is a pure function of its inputs: equal-score
	// fixed points can never make the result drift across runs, Go
	// versions or map-iteration orders, which the design-space
	// explorer's byte-stable output depends on.
	a := greedy(cm, procs, segments, opts)
	localSearch(cm, &a, opts)
	// The round-robin seed ignores pins, so it only enters the race
	// when no process is pinned.
	if len(opts.Pinned) == 0 {
		if rr, err := RoundRobin(cm, segments); err == nil {
			localSearch(cm, &rr, opts)
			if better(cm, procs, rr, a) {
				a = rr
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for restart := 0; restart < 8; restart++ {
		r := randomAllocation(rng, procs, segments, opts)
		if !r.Valid() {
			continue
		}
		localSearch(cm, &r, opts)
		if better(cm, procs, r, a) {
			a = r
		}
	}
	return a, nil
}

// canonicalVector renders an allocation as its assignment vector over
// the ascending active process ids — the tie-break key of the solver:
// two allocations compare by their vectors exactly when their scores
// are equal.
func canonicalVector(procs []psdf.ProcessID, a Allocation) []int {
	v := make([]int, len(procs))
	for i, p := range procs {
		v[i] = a.Of[p]
	}
	return v
}

// better reports whether a beats b under the solver's documented
// deterministic total order: strictly lower Score wins; equal scores
// break towards the lexicographically smaller canonical assignment
// vector (matching the exhaustive path's first-found-is-smallest
// enumeration order). procs must be the ascending active process ids
// both allocations were built over.
func better(cm *psdf.CommMatrix, procs []psdf.ProcessID, a, b Allocation) bool {
	sa, sb := Score(cm, a), Score(cm, b)
	if sa != sb {
		return sa < sb
	}
	va, vb := canonicalVector(procs, a), canonicalVector(procs, b)
	for i := range va {
		if va[i] != vb[i] {
			return va[i] < vb[i]
		}
	}
	return false
}

// randomAllocation deals processes to segments uniformly, guaranteeing
// every segment at least one process and honouring the load cap.
func randomAllocation(rng *rand.Rand, procs []psdf.ProcessID, segments int, opts Options) Allocation {
	a := Allocation{Segments: segments, Of: make(map[psdf.ProcessID]int, len(procs))}
	counts := make([]int, segments)
	var free []psdf.ProcessID
	for _, p := range procs {
		if pin, ok := opts.Pinned[p]; ok {
			a.Of[p] = pin
			counts[pin]++
		} else {
			free = append(free, p)
		}
	}
	perm := rng.Perm(len(free))
	// Seed the still-empty segments first.
	next := 0
	for s := 0; s < segments && next < len(perm); s++ {
		if counts[s] > 0 {
			continue
		}
		a.Of[free[perm[next]]] = s
		counts[s]++
		next++
	}
	for _, pi := range perm[next:] {
		for {
			s := rng.Intn(segments)
			if opts.MaxLoad > 0 && counts[s] >= opts.MaxLoad {
				continue
			}
			a.Of[free[pi]] = s
			counts[s]++
			break
		}
	}
	return a
}

// activeProcesses returns the process ids with any traffic, ascending.
func activeProcesses(cm *psdf.CommMatrix) []psdf.ProcessID {
	var out []psdf.ProcessID
	for i := 0; i < cm.Size(); i++ {
		p := psdf.ProcessID(i)
		if cm.RowSum(p) > 0 || cm.ColSum(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// exhaustive enumerates every assignment (with the first process
// pinned to segment 0 — reversal symmetry of the linear topology) and
// returns the cheapest valid one. Ties break towards the
// lexicographically smallest assignment vector, making the result
// deterministic.
func exhaustive(cm *psdf.CommMatrix, procs []psdf.ProcessID, segments int, opts Options) Allocation {
	n := len(procs)
	assign := make([]int, n)
	best := make([]int, n)
	bestCost := int64(-1)
	counts := make([]int, segments)

	var rec func(i int)
	rec = func(i int) {
		if i == n {
			for _, c := range counts {
				if c == 0 {
					return
				}
			}
			a := Allocation{Segments: segments, Of: make(map[psdf.ProcessID]int, n)}
			for k, p := range procs {
				a.Of[p] = assign[k]
			}
			c := Score(cm, a)
			if bestCost < 0 || c < bestCost {
				bestCost = c
				copy(best, assign)
			}
			return
		}
		lo, hi := 0, segments
		if pin, ok := opts.Pinned[procs[i]]; ok {
			lo, hi = pin, pin+1
		} else if i == 0 && len(opts.Pinned) == 0 {
			hi = 1 // pin first process: mirror symmetry (only without user pins)
		}
		for s := lo; s < hi; s++ {
			if opts.MaxLoad > 0 && counts[s] >= opts.MaxLoad {
				continue
			}
			// Prune: remaining processes must be able to fill the
			// still-empty segments.
			assign[i] = s
			counts[s]++
			empty := 0
			for _, c := range counts {
				if c == 0 {
					empty++
				}
			}
			if n-i-1 >= empty {
				rec(i + 1)
			}
			counts[s]--
		}
	}
	rec(0)

	a := Allocation{Segments: segments, Of: make(map[psdf.ProcessID]int, n)}
	for k, p := range procs {
		a.Of[p] = best[k]
	}
	return a
}

// greedy seeds each segment with the heaviest-communicating unplaced
// processes and then assigns every remaining process to the segment
// minimising the marginal cost.
func greedy(cm *psdf.CommMatrix, procs []psdf.ProcessID, segments int, opts Options) Allocation {
	// Order processes by total traffic, heaviest first; ties by id.
	order := make([]psdf.ProcessID, len(procs))
	copy(order, procs)
	weight := func(p psdf.ProcessID) int { return cm.RowSum(p) + cm.ColSum(p) }
	sort.SliceStable(order, func(i, j int) bool {
		wi, wj := weight(order[i]), weight(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})

	a := Allocation{Segments: segments, Of: make(map[psdf.ProcessID]int, len(procs))}
	counts := make([]int, segments)
	for _, p := range order {
		if pin, ok := opts.Pinned[p]; ok {
			a.Of[p] = pin
			counts[pin]++
		}
	}
	for _, p := range order {
		if _, ok := opts.Pinned[p]; ok {
			continue
		}
		bestSeg, bestCost := -1, int64(-1)
		for s := 0; s < segments; s++ {
			if opts.MaxLoad > 0 && counts[s] >= opts.MaxLoad {
				continue
			}
			a.Of[p] = s
			c := Score(cm, a)
			// Prefer spreading over empty segments early so every
			// segment ends up populated.
			if counts[s] == 0 {
				c -= 1 // nudge towards empty segments on ties
			}
			if bestCost < 0 || c < bestCost {
				bestCost, bestSeg = c, s
			}
		}
		a.Of[p] = bestSeg
		counts[bestSeg]++
	}
	// Ensure no segment is empty: pull the lightest process from the
	// fullest segment into each empty one.
	for s := 0; s < segments; s++ {
		if counts[s] > 0 {
			continue
		}
		fullest := 0
		for t := 1; t < segments; t++ {
			if counts[t] > counts[fullest] {
				fullest = t
			}
		}
		moved := false
		for _, p := range order {
			if _, ok := opts.Pinned[p]; ok {
				continue
			}
			if a.Of[p] == fullest && counts[fullest] > 1 {
				a.Of[p] = s
				counts[fullest]--
				counts[s]++
				moved = true
				break
			}
		}
		if !moved {
			break // cannot fix; caller's Valid check will fail loudly
		}
	}
	return a
}

// localSearch improves the allocation to a fixed point with
// single-process relocations and pairwise swaps. Move evaluation is
// incremental (see loadTracker); each candidate move is applied,
// scored, and rolled back unless it improves. The search reads and
// moves the tracker's positions and writes them back into a once, at
// the fixed point.
func localSearch(cm *psdf.CommMatrix, a *Allocation, opts Options) {
	// The unpinned processes, ascending: the only ones that move.
	procs := make([]psdf.ProcessID, 0, len(a.Of))
	for p := range a.Of {
		if _, ok := opts.Pinned[p]; !ok {
			procs = append(procs, p)
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	counts := make([]int, a.Segments)
	for _, s := range a.Of {
		counts[s]++
	}
	t := newLoadTracker(cm, *a)
	of := t.of
	cur := t.score()
	for improved := true; improved; {
		improved = false
		// Relocations.
		for _, p := range procs {
			from := of[p]
			if counts[from] == 1 {
				continue // would empty the segment
			}
			for s := 0; s < a.Segments; s++ {
				if s == from || (opts.MaxLoad > 0 && counts[s] >= opts.MaxLoad) {
					continue
				}
				t.move(p, s)
				if c := t.score(); c < cur {
					cur = c
					counts[from]--
					counts[s]++
					from = s
					improved = true
				} else {
					t.move(p, from)
				}
			}
		}
		// Swaps.
		for i, p := range procs {
			for _, q := range procs[i+1:] {
				if of[p] == of[q] {
					continue
				}
				t.swap(p, q)
				if c := t.score(); c < cur {
					cur = c
					improved = true
				} else {
					t.swap(p, q)
				}
			}
		}
	}
	t.store(a)
}

// RoundRobin returns the naive baseline allocation: processes dealt to
// segments in id order, round-robin. Used by the placement-quality
// ablation.
func RoundRobin(cm *psdf.CommMatrix, segments int) (Allocation, error) {
	if segments < 1 {
		return Allocation{}, fmt.Errorf("place: need at least one segment, got %d", segments)
	}
	procs := activeProcesses(cm)
	if len(procs) < segments {
		return Allocation{}, fmt.Errorf("place: %d processes cannot populate %d segments", len(procs), segments)
	}
	a := Allocation{Segments: segments, Of: make(map[psdf.ProcessID]int, len(procs))}
	for i, p := range procs {
		a.Of[p] = i % segments
	}
	return a, nil
}
