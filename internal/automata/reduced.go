package automata

// reducedOutcome is the result of one greedy maximal run.
type reducedOutcome struct {
	terminated bool     // every stage completed
	final      []byte   // last state reached (the stuck state when !terminated)
	trace      []Action // the full action history of the run
	steps      int
}

// runReduced drives one greedy maximal run of the product: at every
// state it fires the first enabled transition, preferring to flush
// in-flight work (deliver, then grant, then request) before starting
// new computations. Because the firing gates are monotone in the
// delivered-package counts — delivering a package never disables
// another transition for good — the product is persistent, and every
// maximal run delivers the same package set. One greedy run therefore
// decides deadlock-versus-termination exactly, visiting a number of
// states linear in the package count instead of the product's
// breadth. Every step advances one emitter's phase and each package
// cycles through four phases once, so the run ends within
// 4·TotalPackages steps — exactly that many when it terminates. The
// breadth-first explorer cross-checks this reduction
// (TestProductMatchesReduced, FuzzProduct).
func (s *System) runReduced() reducedOutcome {
	st := s.initial()
	out := reducedOutcome{}
	// Flush priority: later phases first, so traces read like a
	// serialised schedule and the bus is free whenever a grant fires.
	prio := []Phase{Transferring, RequestingBus, Computing, Waiting}
	for {
		if s.done(st) {
			out.terminated = true
			out.final = st
			return out
		}
		fired := false
		for _, ph := range prio {
			for ei := range s.emitters {
				if s.phase(st, ei) != ph || !s.enabled(st, ei) {
					continue
				}
				a, ns := s.step(st, ei)
				out.trace = append(out.trace, a)
				st = ns
				out.steps++
				fired = true
				break
			}
			if fired {
				break
			}
		}
		if !fired {
			out.final = st // stuck: a reachable deadlock state
			return out
		}
	}
}
