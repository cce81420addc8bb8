package automata

// productOutcome is the result of one breadth-first product
// exploration.
type productOutcome struct {
	verdict   Verdict  // Terminates or Deadlocks; meaningless when exhausted
	exhausted bool     // the state budget ran out before a verdict
	states    int      // distinct states visited
	trace     []Action // shortest path into the stuck state (Deadlocks)
	stuck     []byte   // the stuck state itself (Deadlocks)
}

// stateRec is one discovered state of the exploration graph: its
// encoded form plus the predecessor edge used for trace
// reconstruction.
type stateRec struct {
	key  string
	pred int32 // index of the predecessor state (-1 for the root)
	act  Action
}

// exploreProduct runs the exhaustive breadth-first exploration of the
// product: an iterative worklist with hashed state deduplication,
// stopping at the first stuck state (which, in discovery order, is one
// of minimal depth — its predecessor chain is a shortest
// counterexample trace) or when the distinct-state budget is
// exhausted. States are expanded in discovery order and each state's
// successors in the fixed order of succ, so the reported trace is a
// pure function of the model.
func (s *System) exploreProduct(budget int) productOutcome {
	root := s.initial()
	states := []stateRec{{key: string(root), pred: -1}}
	visited := map[string]int32{states[0].key: 0}

	for id := int32(0); int(id) < len(states); id++ {
		st := []byte(states[id].key)
		exhausted := false
		n := s.succ(st, func(a Action, ns []byte) {
			key := string(ns)
			if _, ok := visited[key]; ok || exhausted {
				return
			}
			if len(states) >= budget {
				exhausted = true
				return
			}
			visited[key] = int32(len(states))
			states = append(states, stateRec{key: key, pred: id, act: a})
		})
		if exhausted {
			return productOutcome{exhausted: true, states: len(states)}
		}
		if n == 0 && !s.done(st) {
			return productOutcome{
				verdict: Deadlocks,
				states:  len(states),
				trace:   s.rebuildTrace(states, id),
				stuck:   st,
			}
		}
	}
	return productOutcome{verdict: Terminates, states: len(states)}
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
