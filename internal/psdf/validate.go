package psdf

import (
	"fmt"
	"sort"
)

// ValidationError describes one well-formedness violation found in a
// PSDF model. Errors carry the offending flow (when applicable) so
// that a front end can highlight the model element, mirroring the DSL
// tool behaviour described in section 2.2 of the paper. Code is the
// stable SB0xx diagnostic code of the violated rule (see
// internal/analyze for the full table).
type ValidationError struct {
	Code    string // stable diagnostic code ("SB006")
	Flow    *Flow  // offending flow, nil for model-level violations
	Message string // human-readable description
}

// Error implements the error interface.
func (e *ValidationError) Error() string {
	prefix := "psdf: "
	if e.Flow != nil {
		prefix = fmt.Sprintf("psdf: flow %s: ", e.Flow)
	}
	if e.Code != "" {
		prefix += e.Code + ": "
	}
	return prefix + e.Message
}

// Stable diagnostic codes of the PSDF well-formedness rules.
const (
	CodeNoProcesses   = "SB001" // model has no processes
	CodeNoFlows       = "SB002" // model has no flows
	CodeBadItems      = "SB003" // non-positive data item count
	CodeBadOrder      = "SB004" // negative ordering number
	CodeBadTicks      = "SB005" // negative per-package tick count
	CodeSelfLoop      = "SB006" // flow is a self-loop
	CodeDuplicateFlow = "SB007" // duplicate (source, target, order)
	CodeIsolated      = "SB008" // process carries no flow at all
	CodeUnreachable   = "SB009" // not reachable from any initial node
	CodeOrderTooEarly = "SB010" // ordered before every feeding flow
)

// ValidationErrors aggregates every violation found in one validation
// pass so the designer can fix them all at once.
type ValidationErrors []*ValidationError

// Error implements the error interface by joining the individual
// messages.
func (es ValidationErrors) Error() string {
	switch len(es) {
	case 0:
		return "psdf: no validation errors"
	case 1:
		return es[0].Error()
	}
	s := es[0].Error()
	for _, e := range es[1:] {
		s += "; " + e.Error()
	}
	return s
}

// Validate checks the model against the PSDF well-formedness rules:
//
//   - the model has at least one process and at least one flow;
//   - every flow carries a positive number of data items;
//   - ordering numbers and per-package tick counts are non-negative;
//   - no flow is a self-loop;
//   - no two flows share the same (source, target, order) triple —
//     the paper's definition requires flows to be distinguishable;
//   - every non-source process is reachable from some initial node
//     (no orphan islands fed by nothing);
//   - the flow dependency structure is acyclic when ordering numbers
//     are taken into account: a flow must not be ordered before a
//     flow that produces its source's input data, unless they share
//     an ordering number (concurrent flows).
//
// A nil return means the model is valid. Otherwise the returned error
// is a ValidationErrors listing every violation.
//
// A passing verdict is memoised until the next AddProcess, AddFlow or
// SetNominalPackageSize, so the stages of one request (parse, key,
// emulation) and the explorer's pooled runs of one model check it
// once. A failing one is recomputed on every call: each caller gets
// an error of its own.
func (m *Model) Validate() error {
	if m.valid.Load() {
		return nil
	}
	err := m.validate()
	if err == nil {
		m.valid.Store(true)
	}
	return err
}

func (m *Model) validate() error {
	var errs ValidationErrors
	add := func(code string, f *Flow, format string, args ...interface{}) {
		errs = append(errs, &ValidationError{Code: code, Flow: f, Message: fmt.Sprintf(format, args...)})
	}

	if len(m.processes) == 0 {
		add(CodeNoProcesses, nil, "model %q has no processes", m.name)
	}
	if len(m.flows) == 0 {
		add(CodeNoFlows, nil, "model %q has no flows", m.name)
	}

	type key struct {
		src, dst ProcessID
		order    int
	}
	seen := make(map[key]bool)
	for i := range m.flows {
		f := m.flows[i]
		if f.Items <= 0 {
			add(CodeBadItems, &m.flows[i], "non-positive data item count %d", f.Items)
		}
		if f.Order < 0 {
			add(CodeBadOrder, &m.flows[i], "negative ordering number %d", f.Order)
		}
		if f.Ticks < 0 {
			add(CodeBadTicks, &m.flows[i], "negative per-package tick count %d", f.Ticks)
		}
		if f.Source == f.Target {
			add(CodeSelfLoop, &m.flows[i], "self-loop")
		}
		if f.Target == SystemOutput {
			continue
		}
		k := key{f.Source, f.Target, f.Order}
		if seen[k] {
			add(CodeDuplicateFlow, &m.flows[i], "duplicate flow (same source, target and ordering number)")
		}
		seen[k] = true
	}

	// Isolated processes: declared but carrying no flow at all.
	if len(m.flows) > 0 {
		touched := make(map[ProcessID]bool)
		for _, f := range m.flows {
			touched[f.Source] = true
			if f.Target != SystemOutput {
				touched[f.Target] = true
			}
		}
		for _, p := range m.Processes() {
			if !touched[p] {
				add(CodeIsolated, nil, "process %s is isolated (no incoming or outgoing flow)", p)
			}
		}
	}

	// Reachability from initial nodes.
	if len(m.flows) > 0 {
		reach := make(map[ProcessID]bool)
		var frontier []ProcessID
		for _, p := range m.Sources() {
			reach[p] = true
			frontier = append(frontier, p)
		}
		adj := make(map[ProcessID][]ProcessID)
		for _, f := range m.flows {
			if f.Target != SystemOutput {
				adj[f.Source] = append(adj[f.Source], f.Target)
			}
		}
		for len(frontier) > 0 {
			p := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, q := range adj[p] {
				if !reach[q] {
					reach[q] = true
					frontier = append(frontier, q)
				}
			}
		}
		var unreachable []ProcessID
		for _, p := range m.Processes() {
			if !reach[p] {
				unreachable = append(unreachable, p)
			}
		}
		sort.Slice(unreachable, func(i, j int) bool { return unreachable[i] < unreachable[j] })
		for _, p := range unreachable {
			add(CodeUnreachable, nil, "process %s is not reachable from any initial node", p)
		}
	}

	// Ordering consistency: a process's output flow must not be
	// strictly ordered before all flows feeding that process, because
	// then it could never have data to send. (Sources are exempt.)
	inOrders := make(map[ProcessID][]int)
	for _, f := range m.flows {
		if f.Target != SystemOutput {
			inOrders[f.Target] = append(inOrders[f.Target], f.Order)
		}
	}
	for i := range m.flows {
		f := m.flows[i]
		ins := inOrders[f.Source]
		if len(ins) == 0 {
			continue // source process: always has data
		}
		minIn := ins[0]
		for _, t := range ins[1:] {
			if t < minIn {
				minIn = t
			}
		}
		if f.Order < minIn {
			add(CodeOrderTooEarly, &m.flows[i], "ordered (%d) before every flow feeding its source (earliest input order %d)", f.Order, minIn)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return errs
}
