package analyze

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"segbus/internal/dsl"
	"segbus/internal/emulator"
)

// fuzzSeeds are the hand-written DSL documents both fuzz targets
// start from.
var fuzzSeeds = []string{
	"application empty\n",
	// A cyclic same-stage flow pair (provable deadlock, SB101).
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
// the preflight analyzers only after a failure: they find an error
// exactly when the emulation fails. It starts from FuzzAnalyze's
// seeds, its committed corpus included, and the deadlock gallery.
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
		if s := doc.Platform.PackageSize; s > 0 && doc.Model.TotalPackages(s) > 1<<12 {
			return // keep one execution cheap
		}
		pre := RunModels(doc.Model, doc.Platform, Options{Analyzers: PreflightAnalyzers()})
		_, emuErr := emulator.Run(doc.Model, doc.Platform, emulator.Config{})
		if pre.HasErrors() != (emuErr != nil) {
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
