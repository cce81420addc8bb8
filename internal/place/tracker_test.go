package place

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"segbus/internal/psdf"
)

// TestTrackerMatchesSpecification drives the incremental tracker
// through random move/swap sequences and checks it against the pure
// Score/BusLoads specification after every step, on the allocation
// the tracker stores back.
func TestTrackerMatchesSpecification(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		segs := 2 + rng.Intn(3)
		cm := psdf.NewCommMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(3) == 0 {
					cm.Set(psdf.ProcessID(i), psdf.ProcessID(j), rng.Intn(200))
				}
			}
		}
		a := Allocation{Segments: segs, Of: make(map[psdf.ProcessID]int)}
		for i := 0; i < n; i++ {
			a.Of[psdf.ProcessID(i)] = rng.Intn(segs)
		}
		tr := newLoadTracker(cm, a)
		for step := 0; step < 60; step++ {
			if rng.Intn(2) == 0 {
				tr.move(psdf.ProcessID(rng.Intn(n)), rng.Intn(segs))
			} else {
				tr.swap(psdf.ProcessID(rng.Intn(n)), psdf.ProcessID(rng.Intn(n)))
			}
			tr.store(&a)
			wantLoads := BusLoads(cm, a)
			for s := range wantLoads {
				if tr.loads[s] != wantLoads[s] {
					t.Fatalf("trial %d step %d: loads[%d] = %d, want %d",
						trial, step, s, tr.loads[s], wantLoads[s])
				}
			}
			if got, want := tr.score(), Score(cm, a); got != want {
				t.Fatalf("trial %d step %d: score %d, want %d", trial, step, got, want)
			}
		}
	}
}

// TestTrackerSelfSwapAndNoopMove covers the degenerate operations.
func TestTrackerSelfSwapAndNoopMove(t *testing.T) {
	cm := pipelineMatrix(4, 10)
	a := Allocation{Segments: 2, Of: map[psdf.ProcessID]int{0: 0, 1: 0, 2: 1, 3: 1}}
	tr := newLoadTracker(cm, a)
	before := tr.score()
	tr.move(0, 0) // no-op
	tr.swap(0, 1) // same segment: no-op
	tr.swap(2, 2) // identity
	tr.store(&a)
	if tr.score() != before {
		t.Error("no-op operations changed the score")
	}
	if got, want := tr.score(), Score(cm, a); got != want {
		t.Errorf("score %d, want %d", got, want)
	}
}

// TestLocalSearchStillReachesChainOptimum guards the rewrite: the
// incremental search must find the same single-cut optimum on a chain
// as the pure-specification version did.
func TestLocalSearchStillReachesChainOptimum(t *testing.T) {
	cm := pipelineMatrix(12, 10) // heuristic path (12 > MaxExhaustive)
	a, err := Solve(cm, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := Cost(cm, a); got != 10 {
		t.Errorf("chain cut cost = %d, want 10 (%v)", got, a)
	}
}

// mapTracker and mapLocalSearch are the map-backed tracker and local
// search the dense versions replaced, kept verbatim as the oracle of
// TestSolveMatchesMapOracle: the tracker moves processes by writing
// a.Of directly, and the search reads every position from a.Of.
type mapTracker struct {
	a          *Allocation
	loads      []int64
	neighbours map[psdf.ProcessID][]neighbour
}

func newMapTracker(cm *psdf.CommMatrix, a *Allocation) *mapTracker {
	t := &mapTracker{a: a, loads: BusLoads(cm, *a), neighbours: make(map[psdf.ProcessID][]neighbour)}
	n := cm.Size()
	for i := 0; i < n; i++ {
		p := psdf.ProcessID(i)
		if _, placed := a.Of[p]; !placed {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			q := psdf.ProcessID(j)
			if _, placed := a.Of[q]; !placed {
				continue
			}
			out := cm.At(p, q)
			in := cm.At(q, p)
			if out != 0 || in != 0 {
				t.neighbours[p] = append(t.neighbours[p], neighbour{q: q, out: out, in: in})
			}
		}
	}
	return t
}

func (t *mapTracker) score() int64 {
	var s int64
	for _, l := range t.loads {
		s += l * l
	}
	return s
}

func (t *mapTracker) applyRoute(a, b int, items int, sign int64) {
	if items == 0 {
		return
	}
	lo, hi := min(a, b), max(a, b)
	for s := lo; s <= hi; s++ {
		t.loads[s] += sign * int64(items)
	}
}

func (t *mapTracker) move(p psdf.ProcessID, to int) {
	from := t.a.Of[p]
	if from == to {
		return
	}
	for _, nb := range t.neighbours[p] {
		sq := t.a.Of[nb.q]
		t.applyRoute(from, sq, nb.out+nb.in, -1)
		t.applyRoute(to, sq, nb.out+nb.in, +1)
	}
	t.a.Of[p] = to
}

func (t *mapTracker) swap(p, q psdf.ProcessID) {
	sp, sq := t.a.Of[p], t.a.Of[q]
	if sp == sq {
		return
	}
	t.move(p, sq)
	t.move(q, sp)
}

func mapLocalSearch(cm *psdf.CommMatrix, a *Allocation, opts Options) {
	procs := make([]psdf.ProcessID, 0, len(a.Of))
	for p := range a.Of {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	counts := make([]int, a.Segments)
	for _, s := range a.Of {
		counts[s]++
	}
	t := newMapTracker(cm, a)
	cur := t.score()
	for improved := true; improved; {
		improved = false
		for _, p := range procs {
			if _, ok := opts.Pinned[p]; ok {
				continue
			}
			from := a.Of[p]
			if counts[from] == 1 {
				continue
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
		for i, p := range procs {
			if _, ok := opts.Pinned[p]; ok {
				continue
			}
			for _, q := range procs[i+1:] {
				if _, ok := opts.Pinned[q]; ok {
					continue
				}
				if a.Of[p] == a.Of[q] {
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
}

// oracleSolve is Solve's heuristic path with mapLocalSearch: the
// greedy, round-robin and restart seeds, each searched to its fixed
// point, the best kept. The caller has validated the instance.
func oracleSolve(cm *psdf.CommMatrix, segments int, opts Options) Allocation {
	procs := activeProcesses(cm)
	a := greedy(cm, procs, segments, opts)
	mapLocalSearch(cm, &a, opts)
	if len(opts.Pinned) == 0 {
		if rr, err := RoundRobin(cm, segments); err == nil {
			mapLocalSearch(cm, &rr, opts)
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
		mapLocalSearch(cm, &r, opts)
		if better(cm, procs, r, a) {
			a = r
		}
	}
	return a
}

// TestSolveMatchesMapOracle diffs Solve against oracleSolve on 320
// random matrices of 4-30 processes over 2-5 segments, a third with a
// load cap and a third with pins. MaxExhaustive 1 sends every instance
// down the heuristic path, the only one that searches: the dense
// tracker must make exactly the map version's moves, so both return
// the same allocation, and so must single searches from the same
// start. The diff is sequential, so under the race
// detector only the first 40 instances run: it adds nothing there but
// time (~20 s for all 320).
func TestSolveMatchesMapOracle(t *testing.T) {
	trials := 320
	if raceEnabled {
		trials = 40
	}
	rng := rand.New(rand.NewSource(41))
	compared := 0
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(27)
		segs := 2 + rng.Intn(4)
		cm := psdf.NewCommMatrix(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(4) == 0 {
					cm.Set(psdf.ProcessID(i), psdf.ProcessID(j), 1+rng.Intn(300))
				}
			}
		}
		opts := Options{MaxExhaustive: 1}
		if rng.Intn(3) == 0 {
			opts.MaxLoad = (n+segs-1)/segs + rng.Intn(3)
		}
		if rng.Intn(3) == 0 {
			opts.Pinned = map[psdf.ProcessID]int{}
			for k := 0; k < 1+rng.Intn(3); k++ {
				opts.Pinned[psdf.ProcessID(rng.Intn(n))] = rng.Intn(segs)
			}
		}
		got, err := Solve(cm, segs, opts)
		if err != nil {
			continue // rejected before any search
		}
		if want := oracleSolve(cm, segs, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d procs, %d segs, %+v): Solve %v, oracle %v", trial, n, segs, opts, got, want)
		}
		// Solve keeps the best of ten searches, which can hide a
		// search that took another path to the same optimum: diff
		// single searches from the greedy seed and a random one too.
		procs := activeProcesses(cm)
		for _, start := range []Allocation{
			greedy(cm, procs, segs, opts),
			randomAllocation(rand.New(rand.NewSource(int64(trial))), procs, segs, opts),
		} {
			if !start.Valid() {
				continue
			}
			dense, oracle := start.Clone(), start.Clone()
			localSearch(cm, &dense, opts)
			mapLocalSearch(cm, &oracle, opts)
			if !reflect.DeepEqual(dense, oracle) {
				t.Fatalf("trial %d: from %v the search reached %v, oracle %v", trial, start, dense, oracle)
			}
		}
		compared++
	}
	if compared < trials*15/16 {
		t.Fatalf("only %d of %d instances were solved", compared, trials)
	}
}
