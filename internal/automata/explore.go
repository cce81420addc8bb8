package automata

import (
	"runtime"

	"segbus/internal/parallel"
)

// productOutcome is the result of one breadth-first product
// exploration.
type productOutcome struct {
	verdict Verdict  // Terminates, Deadlocks or Inconclusive (budget)
	states  int      // distinct states visited
	trace   []Action // shortest path into the stuck state (Deadlocks)
	stuck   []byte   // the stuck state itself (Deadlocks)
}

// stateRec is one discovered state of the exploration graph: its
// encoded form plus the predecessor edge used for trace
// reconstruction.
type stateRec struct {
	key  string
	pred int32 // index of the predecessor state (-1 for the root)
	act  Action
}

// expansion is one frontier state's expansion, computed by a worker.
type expansion struct {
	succs []succRec
	stuck bool // zero successors and stages incomplete
}

type succRec struct {
	key string
	act Action
}

// minParallelFrontier is the frontier size below which level
// expansion stays serial; smaller levels are cheaper than the
// hand-off to workers.
const minParallelFrontier = 64

// exploreProduct runs the exhaustive breadth-first exploration of the
// product: an iterative worklist (frontier levels) with hashed state
// deduplication, stopping at the first stuck state (which, in level
// order, is one of minimal depth — its predecessor chain is a
// shortest counterexample trace) or when the distinct-state budget is
// exhausted. Frontier levels are expanded by workers in parallel;
// the merge walks the frontier in order and the per-state successor
// enumeration is fixed, so the discovery order — and therefore the
// reported trace — is identical for any worker count.
func (s *System) exploreProduct(budget, workers int) productOutcome {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	root := s.initial()
	visited := make(map[string]int32, 1024)
	states := []stateRec{{key: string(root), pred: -1}}
	visited[states[0].key] = 0

	frontier := []int32{0}
	for len(frontier) > 0 {
		keys := make([]string, len(frontier))
		for fi, id := range frontier {
			keys[fi] = states[id].key
		}
		exps := s.expandLevel(keys, workers)

		var next []int32
		for fi, exp := range exps {
			if exp.stuck {
				id := frontier[fi]
				return productOutcome{
					verdict: Deadlocks,
					states:  len(states),
					trace:   s.rebuildTrace(states, id),
					stuck:   []byte(states[id].key),
				}
			}
			for _, sr := range exp.succs {
				if _, ok := visited[sr.key]; ok {
					continue
				}
				if len(states) >= budget {
					return productOutcome{verdict: Inconclusive, states: len(states)}
				}
				id := int32(len(states))
				visited[sr.key] = id
				states = append(states, stateRec{key: sr.key, pred: frontier[fi], act: sr.act})
				next = append(next, id)
			}
		}
		frontier = next
	}
	return productOutcome{verdict: Terminates, states: len(states)}
}

// expandLevel computes the expansion of every frontier state (given
// by its encoded key), fanning the work out to the work-stealing
// scheduler when the level is large enough. Each expansion writes only
// its own slot of the result slice, so no locking is needed; dedup
// against the visited set happens in the caller's deterministic
// in-order merge.
func (s *System) expandLevel(keys []string, workers int) []expansion {
	exps := make([]expansion, len(keys))
	expand := func(fi int) {
		st := []byte(keys[fi])
		n := s.succ(st, func(a Action, ns []byte) {
			exps[fi].succs = append(exps[fi].succs, succRec{key: string(ns), act: a})
		})
		exps[fi].stuck = n == 0 && !s.done(st)
	}
	if workers <= 1 || len(keys) < minParallelFrontier {
		for fi := range keys {
			expand(fi)
		}
		return exps
	}
	parallel.StealRun(len(keys), parallel.StealOptions{Workers: workers}, expand)
	return exps
}

// rebuildTrace walks the predecessor chain from state id back to the
// root and returns the action sequence in forward order.
func (s *System) rebuildTrace(states []stateRec, id int32) []Action {
	var rev []Action
	for cur := id; states[cur].pred >= 0; cur = states[cur].pred {
		rev = append(rev, states[cur].act)
	}
	out := make([]Action, len(rev))
	for i, a := range rev {
		out[len(rev)-1-i] = a
	}
	return out
}
