package automata

// CheckBudget is Check with the breadth-first trace search capped at
// budget distinct states, so tests can exhaust it on small models.
func (s *System) CheckBudget(budget int) *Result { return s.check(budget) }

// ExploreProduct exposes the breadth-first product explorer to the
// external test package, so the reduced run's verdict can be
// cross-checked against the exhaustive ground truth.
func (s *System) ExploreProduct(budget int) (v Verdict, exhausted bool, states int) {
	p := s.exploreProduct(budget)
	return p.verdict, p.exhausted, p.states
}

// RunReduced exposes the greedy maximal run's raw outcome.
func (s *System) RunReduced() (terminated bool, steps int) {
	out := s.runReduced()
	return out.terminated, out.steps
}
