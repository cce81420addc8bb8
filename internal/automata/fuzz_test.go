package automata_test

import (
	"strings"
	"testing"

	"segbus/internal/automata"
	"segbus/internal/conform"
	"segbus/internal/dsl"
)

// FuzzProduct cross-checks the persistence reduction against the
// exhaustive product exploration on arbitrary documents, seeded from
// the conformance generator's model family. Check rests on that
// reduction: wherever the exploration concludes within budget it must
// agree with the greedy run and with Check, and every deadlock verdict
// must ship a trace that replays into a stuck state.
func FuzzProduct(f *testing.F) {
	gen := conform.NewGenerator(1, nil)
	for i := 0; i < 12; i++ {
		f.Add(gen.Next().Doc.Print())
	}
	const budget = 1 << 12

	f.Fuzz(func(t *testing.T, text string) {
		doc, err := dsl.Parse(strings.NewReader(text))
		if err != nil || doc.Model == nil {
			t.Skip()
		}
		sys, err := automata.Compile(doc.Model, doc.Platform)
		if err != nil {
			t.Skip() // invalid or oversized input
		}
		res := sys.CheckBudget(budget)
		if res.Verdict == automata.Deadlocks {
			stuck, err := sys.Replay(res.Trace)
			if err != nil {
				t.Fatalf("counterexample does not replay: %v", err)
			}
			if !stuck {
				t.Fatalf("counterexample replays to a live state:\n%s", automata.FormatTrace(res.Trace))
			}
		}

		terminated, _ := sys.RunReduced()
		verdict, exhausted, _ := sys.ExploreProduct(budget)
		if exhausted {
			return // the product is too wide to compare within budget
		}
		if terminated != (verdict == automata.Terminates) {
			t.Fatalf("reduced run terminated=%v but product verdict=%v", terminated, verdict)
		}
		if res.Verdict != verdict {
			t.Fatalf("Check verdict %v disagrees with product verdict %v", res.Verdict, verdict)
		}
	})
}
