package analyze

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"segbus/internal/automata"
	"segbus/internal/dsl"
	"segbus/internal/emulator"
)

// fuzzSeeds are the hand-written DSL documents both fuzz targets
// start from.
var fuzzSeeds = []string{
	"application empty\n",
	// A cyclic same-stage flow pair, unreachable from any initial
	// node (SB009).
	`application cyclic
flow P0 -> P1 items=36 order=1 ticks=5
flow P1 -> P0 items=36 order=1 ticks=5
`,
	// An isolated process next to a working pipeline (SB008).
	`application isolated
process P9
flow P0 -> P1 items=36 order=1 ticks=5
flow P1 -> out items=36 order=2 ticks=5
`,
	// A platformed document exercising bounds and congestion.
	`application demo
flow P0 -> P1 items=144 order=1 ticks=50
flow P1 -> P2 items=144 order=2 ticks=50
platform demo-plat
ca-clock 100MHz
package-size 36
segment 1 clock=90MHz processes=P0,P1
segment 2 clock=95MHz processes=P2
`,
	// A package size past the compiled schedule's limit (SB033).
	`application huge
flow P0 -> P1 items=36 order=1 ticks=5
platform huge-plat
ca-clock 100MHz
package-size 2147483648
segment 1 clock=100MHz processes=P0,P1
`,
	// Degenerate platform numbers must be reported, not crash.
	`application broken
flow P0 -> P1 items=1 order=0 ticks=0
platform broken-plat
ca-clock 0Hz
package-size -3
segment 1 clock=0Hz processes=P0
`,
}

// FuzzAnalyze feeds arbitrary text through the DSL parser and, for
// every document that parses, runs the full analyzer registry plus
// both renderings. The property: analysis never panics, whatever the
// model looks like — broken platforms, cycles, isolated processes.
func FuzzAnalyze(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := dsl.Parse(strings.NewReader(src))
		if err != nil {
			return // only parsed documents are analyzed
		}
		res := Run(doc, Options{})
		if res == nil {
			t.Fatal("Run returned nil result")
		}
		_ = res.String()
		if _, err := res.JSON(); err != nil {
			t.Fatalf("JSON rendering failed: %v", err)
		}
	})
}

// FuzzPreflightMatchesEmulation checks, on arbitrary documents with a
// platform, the property that lets the serving and CLI front ends run
// the preflight analyzers only after a failure: the emulation fails
// exactly when the failure can be explained with a coded error — by
// the preflight analyzers or by FromError on the emulation's own error
// — and, wherever the exact checker does not reject the model as too
// large, by the preflight analyzers alone. It starts from FuzzAnalyze's
// seeds, its committed corpus included, and the deadlock gallery (the
// oversized open cycle among them).
func FuzzPreflightMatchesEmulation(f *testing.F) {
	for _, src := range fuzzSeeds {
		f.Add(src)
	}
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzAnalyze", "*"))
	if err != nil {
		f.Fatal(err)
	}
	deadlocks, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "deadlock", "*.sbd"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(paths, deadlocks...) {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		src := string(data)
		if filepath.Ext(path) != ".sbd" {
			if src, err = corpusString(src); err != nil {
				f.Fatalf("%s: %v", path, err)
			}
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := dsl.Parse(strings.NewReader(src))
		if err != nil || doc.Platform == nil {
			return // the emulator needs a platform
		}
		// Keep one execution cheap: skip models the exact checker
		// would search at length and models too long to emulate
		// quickly. The oversized band between the two (no exact
		// check, a short emulation) still runs.
		if s := doc.Platform.PackageSize; s > 0 {
			if n := doc.Model.TotalPackages(s); n > 1<<12 && (n <= 1<<15 || n > 1<<16) {
				return
			}
		}
		pre := RunModels(doc.Model, doc.Platform, Options{Analyzers: PreflightAnalyzers()})
		_, emuErr := emulator.Run(doc.Model, doc.Platform, emulator.Config{})
		_, coded := FromError(emuErr)
		if (pre.HasErrors() || coded) != (emuErr != nil) {
			t.Fatalf("preflight errors=%v, coded emulation error=%v, but emulation error=%v\n%s",
				pre.HasErrors(), coded, emuErr, pre)
		}
		_, cerr := automata.Compile(doc.Model, doc.Platform)
		if !errors.Is(cerr, automata.ErrTooLarge) && pre.HasErrors() != (emuErr != nil) {
			t.Fatalf("preflight errors=%v but emulation error=%v\n%s", pre.HasErrors(), emuErr, pre)
		}
	})
}

// corpusString decodes a one-string fuzz corpus file ("go test fuzz
// v1" followed by a string(...) line).
func corpusString(file string) (string, error) {
	_, arg, ok := strings.Cut(file, "\nstring(")
	if !ok {
		return "", errors.New("not a one-string fuzz corpus file")
	}
	return strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(arg), ")"))
}
