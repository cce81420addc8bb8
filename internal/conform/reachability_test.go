package conform

import (
	"errors"
	"path/filepath"
	"testing"

	"segbus/internal/analyze"
	"segbus/internal/automata"
	"segbus/internal/core"
	"segbus/internal/dsl"
	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// TestReachabilityAgreement is the acceptance property of the exact
// reachability checker: over hundreds of generated models — plus
// cyclic mutants of each, which can genuinely deadlock — the checker's
// verdict must match the emulator's outcome, and every deadlock
// counterexample must replay into a stuck state.
func TestReachabilityAgreement(t *testing.T) {
	gen := NewGenerator(7, nil)
	checked, deadlocks := 0, 0
	for i := 0; i < 220; i++ {
		c := gen.Next()
		checked += agreeOnce(t, c.Doc.Model, c.Doc.Platform, &deadlocks)

		// Cyclic mutant: feed the first flow's target back to its
		// source at the same ordering number. Some mutants stay
		// self-consistent and drain; others starve — shapes with the
		// same cycle structure that only the package arithmetic
		// separates.
		mut := cloneDoc(c.Doc)
		fs := mut.Model.Flows()
		if len(fs) == 0 || fs[0].Target == psdf.SystemOutput {
			continue
		}
		f := fs[0]
		mut.Model.AddFlow(psdf.Flow{Source: f.Target, Target: f.Source, Items: f.Items, Order: f.Order, Ticks: 3})
		checked += agreeOnce(t, mut.Model, mut.Platform, &deadlocks)
	}
	if checked < 200 {
		t.Fatalf("only %d models reached a conclusive comparison, want >= 200", checked)
	}
	if deadlocks == 0 {
		t.Errorf("no mutant deadlocked; the agreement property was not exercised on the deadlock side")
	}
	t.Logf("checked %d models, %d deadlocking", checked, deadlocks)
}

// TestPreflightMatchesEmulation is the premise of running the
// preflight analyzers only after a failure: they explain every failed
// emulation with a coded error. agreeOnce asserts it on every pair
// above; here it also meets the scenario corpus, the deadlock gallery
// (the oversized open cycle included, which only the emulation's own
// SB050 explains) and an unmapped-process mutant, so the structural
// side (SB029) is exercised too.
func TestPreflightMatchesEmulation(t *testing.T) {
	var docs []*dsl.Document
	for _, dir := range []string{"scenarios", filepath.Join("scenarios", "deadlock")} {
		ds, err := LoadCorpusDir(filepath.Join("..", "..", "testdata", dir))
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, ds...)
	}
	deadlocks := 0
	for _, doc := range docs {
		agreeOnce(t, doc.Model, doc.Platform, &deadlocks)
	}
	if deadlocks < 2 {
		t.Errorf("%d scenario(s) decided to deadlock, want the two compilable ones of the deadlock gallery", deadlocks)
	}

	// A sink process the platform does not host: validation fails
	// before any emulation, and preflight must say so with SB029.
	mut := cloneDoc(docs[0])
	f := mut.Model.Flows()[0]
	mut.Model.AddFlow(psdf.Flow{Source: f.Target, Target: 99, Items: f.Items, Order: f.Order + 1, Ticks: 3})
	agreeOnce(t, mut.Model, mut.Platform, &deadlocks)
	if !hasCode(core.Preflight(mut.Model, mut.Platform), "SB029") {
		t.Error("preflight does not report the unmapped process as SB029")
	}
}

// hasCode reports whether res carries a finding with the given code.
func hasCode(res *analyze.Result, code string) bool {
	for _, d := range res.Diagnostics {
		if d.Code == code {
			return true
		}
	}
	return false
}

// agreeOnce asserts that a pair's emulation fails exactly when the
// failure can be explained with a coded error — by core.Preflight, or
// by analyze.FromError on the emulation's own error — and, wherever
// automata.Compile does not reject the pair as too large, by
// core.Preflight alone. It then
// compares the checker and the emulator on the pair, returning 1 when
// the checker decided it and 0 when the model is outside the checker's
// domain (invalid or too large to compile).
func agreeOnce(t *testing.T, m *psdf.Model, plat *platform.Platform, deadlocks *int) int {
	t.Helper()
	_, emuErr := emulator.Run(m, plat, emulator.Config{})
	pre := core.Preflight(m, plat)
	_, coded := analyze.FromError(emuErr)
	if (pre.HasErrors() || coded) != (emuErr != nil) {
		t.Fatalf("%s: preflight errors=%v, coded emulation error=%v, but emulation error=%v\n%s",
			m.Name(), pre.HasErrors(), coded, emuErr, pre)
	}
	sys, err := automata.Compile(m, plat)
	if !errors.Is(err, automata.ErrTooLarge) && pre.HasErrors() != (emuErr != nil) {
		t.Fatalf("%s: preflight errors=%v but emulation error=%v\n%s", m.Name(), pre.HasErrors(), emuErr, pre)
	}
	if err != nil {
		return 0
	}
	res := sys.Check()
	var dl *emulator.DeadlockError
	emuDeadlock := errors.As(emuErr, &dl)
	if emuErr != nil && !emuDeadlock {
		t.Fatalf("%s: emulator failed for a non-deadlock reason: %v", m.Name(), emuErr)
	}
	if emuDeadlock != (res.Verdict == automata.Deadlocks) {
		t.Fatalf("%s: checker verdict %v, emulator deadlock=%v", m.Name(), res.Verdict, emuDeadlock)
	}
	if res.Verdict == automata.Deadlocks {
		*deadlocks++
		stuck, rerr := sys.Replay(res.Trace)
		if rerr != nil {
			t.Fatalf("%s: counterexample does not replay: %v", m.Name(), rerr)
		}
		if !stuck {
			t.Fatalf("%s: counterexample replays to a live state", m.Name())
		}
	}
	return 1
}
