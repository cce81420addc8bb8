package analyze

import (
	"errors"
	"fmt"
	"strings"

	"segbus/internal/automata"
)

// Stable diagnostic codes of the exact reachability check.
const (
	// CodeDeadlockState flags a model whose schedule reaches a state
	// where no process can fire while packages remain undelivered
	// (error). The exact checker proves it by exploring the
	// communicating-automata product and attaches a minimal
	// counterexample trace, printable with segbus-vet -why SB050; an
	// emulation that stalls reports the same code through FromError.
	CodeDeadlockState = "SB050"

	// CodeNeverFires flags a process whose first emission's firing
	// gate is unsatisfiable in every run of the schedule: the process
	// can never fire (error). Reported alongside SB050 for each
	// permanently starved process.
	CodeNeverFires = "SB051"

	// CodeTooLarge reports that the model is too large for the exact
	// checker's state encoding, so exact reachability analysis was
	// skipped (info). The SB101 cycle heuristic runs in its place.
	CodeTooLarge = "SB052"
)

// checkExactReachability compiles the model and platform into the
// communicating-automata product (internal/automata) and decides
// deadlock-versus-termination exactly: SB050/SB051 with a
// counterexample, or nothing when the schedule terminates. Models the
// validators reject are skipped silently — the structural analyzer
// already owns those findings. A model too large to compile gets an
// SB052 note and the SB101 same-stage-cycle heuristic instead.
func checkExactReachability(pass *Pass) {
	sys, err := automata.Compile(pass.Model, pass.Platform)
	if err != nil {
		if errors.Is(err, automata.ErrTooLarge) {
			pass.Reportf(CodeTooLarge, SeverityInfo, "model",
				"exact reachability analysis skipped: %v", err)
			checkStageCycles(pass, pass.Model)
		}
		return
	}
	res := sys.Check()
	if res.Verdict != automata.Deadlocks {
		return
	}
	pass.Report(Diagnostic{
		Code:     CodeDeadlockState,
		Severity: SeverityError,
		Element:  deadlockElement(res),
		Message:  deadlockMessage(res),
		Trace:    res.TraceStrings(),
	})
	for _, nf := range res.NeverFired {
		pass.Reportf(CodeNeverFires, SeverityError, nf.Proc.String(),
			"%s can never fire: package %d of %s needs %d input package(s) before emission, but at most %d ever arrive",
			nf.Proc, nf.Pkg, nf.Flow, nf.Need, nf.Have)
	}
}

// deadlockElement picks the model element an SB050 finding highlights:
// the first blocked process, or the whole model if none was singled
// out.
func deadlockElement(res *automata.Result) string {
	if len(res.Blocked) > 0 {
		return res.Blocked[0].Proc.String()
	}
	return "model"
}

// deadlockMessage renders the SB050 one-liner, mirroring the
// emulator's deadlock report so vet and emulation diagnose alike.
func deadlockMessage(res *automata.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule reaches a deadlock state: stuck at stage %d (order %d) with %d package(s) undelivered",
		res.StuckStage, res.StuckOrder, res.Undelivered)
	for _, bl := range res.Blocked {
		fmt.Fprintf(&b, "; %s blocked (needs %d input packages, has %d)", bl.Proc, bl.Need, bl.Have)
	}
	kind := "counterexample"
	if res.Minimal {
		kind = "minimal counterexample"
	}
	fmt.Fprintf(&b, "; %s of %d action(s) attached", kind, len(res.Trace))
	return b.String()
}
