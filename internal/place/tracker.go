package place

import (
	"segbus/internal/psdf"
)

// loadTracker maintains the per-segment bus loads of an allocation
// incrementally, so the local search can evaluate relocations and
// swaps in O(degree × segments) instead of recomputing the full
// O(n² × segments) objective per move. Score(cm, a) remains the pure
// specification; the tracker is property-tested against it.
//
// The tracker works on its own dense copy of the allocation (of,
// indexed by ProcessID), so a move reads and writes slice slots
// rather than map entries; store writes the positions back into an
// Allocation.
type loadTracker struct {
	cm *psdf.CommMatrix
	// of[p] is process p's segment, or -1 for a process the
	// allocation does not place.
	of    []int
	loads []int64
	// neighbours[p] lists (q, out, in) with out = items p sends to q
	// and in = items p receives from q, for placed q != p with any
	// traffic.
	neighbours [][]neighbour
}

type neighbour struct {
	q       psdf.ProcessID
	out, in int
}

// newLoadTracker builds the tracker for the allocation; later moves
// leave a untouched until store.
func newLoadTracker(cm *psdf.CommMatrix, a Allocation) *loadTracker {
	n := cm.Size()
	t := &loadTracker{
		cm:         cm,
		of:         make([]int, n),
		loads:      BusLoads(cm, a),
		neighbours: make([][]neighbour, n),
	}
	for i := range t.of {
		t.of[i] = -1
	}
	for p, s := range a.Of {
		t.of[p] = s
	}
	for i := 0; i < n; i++ {
		if t.of[i] < 0 {
			continue
		}
		p := psdf.ProcessID(i)
		for j := 0; j < n; j++ {
			if i == j || t.of[j] < 0 {
				continue
			}
			q := psdf.ProcessID(j)
			out := cm.At(p, q)
			in := cm.At(q, p)
			if out != 0 || in != 0 {
				t.neighbours[p] = append(t.neighbours[p], neighbour{q: q, out: out, in: in})
			}
		}
	}
	return t
}

// store writes the tracked position of every placed process into a.
func (t *loadTracker) store(a *Allocation) {
	for p, s := range t.of {
		if s >= 0 {
			a.Of[psdf.ProcessID(p)] = s
		}
	}
}

// score returns the current objective value.
func (t *loadTracker) score() int64 {
	var s int64
	for _, l := range t.loads {
		s += l * l
	}
	return s
}

// applyRoute adds sign × items to every segment on the inclusive
// route [min(a,b), max(a,b)].
func (t *loadTracker) applyRoute(a, b int, items int, sign int64) {
	if items == 0 {
		return
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	for s := lo; s <= hi; s++ {
		t.loads[s] += sign * int64(items)
	}
}

// move relocates process p to segment to, updating the loads and the
// tracked position. Self-loops in the matrix are ignored (the model
// forbids them anyway).
func (t *loadTracker) move(p psdf.ProcessID, to int) {
	from := t.of[p]
	if from == to {
		return
	}
	for _, nb := range t.neighbours[p] {
		sq := t.of[nb.q]
		t.applyRoute(from, sq, nb.out+nb.in, -1)
		t.applyRoute(to, sq, nb.out+nb.in, +1)
	}
	t.of[p] = to
}

// swap exchanges the segments of p and q.
func (t *loadTracker) swap(p, q psdf.ProcessID) {
	sp, sq := t.of[p], t.of[q]
	if sp == sq {
		return
	}
	// Move p out of the way first, then q, then p into place; the
	// pairwise p<->q traffic is handled correctly because move always
	// reads the *current* position of the neighbour.
	t.move(p, sq)
	t.move(q, sp)
}
