package analyze

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/dsl"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

func findAll(res *Result, code string) []Diagnostic {
	var out []Diagnostic
	for _, d := range res.Diagnostics {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

func TestRegistryHasBuiltins(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	for _, want := range []string{"structural", "liveness", "bounds", "congestion"} {
		if !names[want] {
			t.Errorf("analyzer %s not registered", want)
		}
	}
	if len(PreflightAnalyzers()) != 2 {
		t.Errorf("preflight set = %d analyzers, want 2", len(PreflightAnalyzers()))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("structural", "nonesuch"); err == nil {
		t.Error("ByName accepted an unknown analyzer")
	}
	as, err := ByName("bounds")
	if err != nil || len(as) != 1 || as[0].Name != "bounds" {
		t.Errorf("ByName(bounds) = %v, %v", as, err)
	}
}

func TestCleanModelHasNoFindings(t *testing.T) {
	res := RunModels(apps.MP3Model(), apps.MP3Platform1(36), Options{})
	if res.HasErrors() {
		t.Fatalf("MP3 on one segment reported errors:\n%s", res)
	}
	if res.Bounds == nil {
		t.Fatal("bounds analyzer produced no figures")
	}
	if len(findAll(res, CodeBoundsInfo)) != 1 {
		t.Errorf("want exactly one SB201 info, got:\n%s", res)
	}
}

func TestStructuralFindingsCarryCodes(t *testing.T) {
	m := psdf.NewModel("broken")
	m.AddFlow(psdf.Flow{Source: 0, Target: 0, Items: 10, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: -3, Order: 1, Ticks: 5})
	res := RunModels(m, nil, Options{})
	if !res.HasErrors() {
		t.Fatal("broken model reported clean")
	}
	if len(findAll(res, psdf.CodeSelfLoop)) == 0 {
		t.Errorf("missing SB006 self-loop:\n%s", res)
	}
	if len(findAll(res, psdf.CodeBadItems)) == 0 {
		t.Errorf("missing SB003 bad items:\n%s", res)
	}
	for _, d := range res.Diagnostics {
		if d.Code == "" {
			t.Errorf("uncoded diagnostic %v", d)
		}
		if d.Analyzer == "" {
			t.Errorf("diagnostic without analyzer attribution %v", d)
		}
	}
}

func TestPlatformAnalyzersSkippedWithoutPlatform(t *testing.T) {
	res := RunModels(apps.MP3Model(), nil, Options{})
	skipped := strings.Join(res.Skipped, ",")
	if !strings.Contains(skipped, "bounds") || !strings.Contains(skipped, "congestion") {
		t.Errorf("Skipped = %q, want bounds and congestion", skipped)
	}
	if res.Bounds != nil {
		t.Error("bounds computed without a platform")
	}
}

// TestLivenessClosedCycleIsError: a same-stage cycle whose members
// take every input from each other is unreachable from any initial
// node, an SB009 error of the structural validator; once seeded from
// outside it compiles, and the exact checker decides it (SB050 with
// its counterexample). SB101 stays silent on both.
func TestLivenessClosedCycleIsError(t *testing.T) {
	m := psdf.NewModel("closed-cycle")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 0, Items: 36, Order: 1, Ticks: 5})
	res := RunModels(m, nil, Options{})
	if len(findAll(res, psdf.CodeUnreachable)) != 2 {
		t.Errorf("want SB009 for both cycle members, got:\n%s", res)
	}
	if len(findAll(res, CodeStageCycle)) != 0 {
		t.Errorf("SB101 reported next to the structural error:\n%s", res)
	}

	m.AddFlow(psdf.Flow{Source: 2, Target: 0, Items: 36, Order: 0, Ticks: 5})
	res = RunModels(m, nil, Options{})
	dl := findAll(res, CodeDeadlockState)
	if len(dl) != 1 || dl[0].Severity != SeverityError || len(dl[0].Trace) == 0 {
		t.Fatalf("want one SB050 error with a trace, got:\n%s", res)
	}
	if n := len(findAll(res, CodeStageCycle)) + len(findAll(res, CodeTooLarge)); n != 0 {
		t.Errorf("SB101/SB052 reported for a model the exact checker decided:\n%s", res)
	}
}

// TestLivenessEscapableCycleIsWarning: on a model too large for the
// exact checker, the same-stage cycle is reported as an SB101 warning
// next to the SB052 note, and claims no verdict.
func TestLivenessEscapableCycleIsWarning(t *testing.T) {
	m := psdf.NewModel("escapable-cycle")
	m.AddFlow(psdf.Flow{Source: 2, Target: 0, Items: 20000, Order: 0, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 20000, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 0, Items: 20000, Order: 1, Ticks: 5})
	res := RunModels(m, nil, Options{})
	if len(findAll(res, CodeTooLarge)) != 1 {
		t.Fatalf("want one SB052, got:\n%s", res)
	}
	cycles := findAll(res, CodeStageCycle)
	if len(cycles) != 1 {
		t.Fatalf("want one SB101, got:\n%s", res)
	}
	if cycles[0].Severity != SeverityWarning {
		t.Errorf("cycle severity = %v, want warning", cycles[0].Severity)
	}
	if !strings.Contains(cycles[0].Message, "P0 -> P1") {
		t.Errorf("cycle members missing from %q", cycles[0].Message)
	}
}

// TestExactCheckerEncodingLimit pins the boundary between the two
// deadlock authorities: a cyclic model of exactly 2^15 packages is
// decided by the exact checker (SB050), one more package makes it too
// large (SB052) and the SB101 warning takes over.
func TestExactCheckerEncodingLimit(t *testing.T) {
	// cyclic builds the cyclic-2seg shape at package size 1: a seed
	// stage of seed packages, then P0 and P1 feeding each other.
	cyclic := func(seed int) *psdf.Model {
		m := psdf.NewModel("cyclic")
		m.AddFlow(psdf.Flow{Source: 3, Target: 0, Items: seed, Order: 1, Ticks: 5})
		m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 16383, Order: 2, Ticks: 5})
		m.AddFlow(psdf.Flow{Source: 1, Target: 0, Items: 16383, Order: 2, Ticks: 5})
		return m
	}

	at := cyclic(2)
	if n := at.TotalPackages(1); n != 1<<15 {
		t.Fatalf("model has %d packages, want 2^15", n)
	}
	res := RunModels(at, nil, Options{})
	if len(findAll(res, CodeDeadlockState)) != 1 || len(findAll(res, CodeTooLarge)) != 0 || len(findAll(res, CodeStageCycle)) != 0 {
		t.Errorf("2^15 packages: want SB050 from the exact checker, no SB052/SB101:\n%s", res)
	}

	over := cyclic(3)
	res = RunModels(over, nil, Options{})
	if res.HasErrors() || len(findAll(res, CodeTooLarge)) != 1 {
		t.Errorf("2^15+1 packages: want SB052 and no error:\n%s", res)
	}
	if cycles := findAll(res, CodeStageCycle); len(cycles) != 1 || cycles[0].Severity != SeverityWarning {
		t.Errorf("2^15+1 packages: want one SB101 warning:\n%s", res)
	}
}

func TestLivenessLateInput(t *testing.T) {
	m := psdf.NewModel("late-input")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 2, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 5, Ticks: 5})
	res := RunModels(m, nil, Options{})
	late := findAll(res, CodeLateInput)
	if len(late) != 1 || late[0].Element != "P1" {
		t.Fatalf("want one SB102 on P1, got:\n%s", res)
	}
}

func TestLivenessNoPathToFinal(t *testing.T) {
	// P3 branches off the pipeline into a dead two-process loop that
	// never reaches the sink P2.
	m := psdf.NewModel("dead-branch")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 0, Target: 3, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 2, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 3, Target: 4, Items: 36, Order: 2, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 4, Target: 3, Items: 36, Order: 3, Ticks: 5})
	res := RunModels(m, nil, Options{})
	flagged := make(map[string]bool)
	for _, d := range findAll(res, CodeNoPathToFinal) {
		flagged[d.Element] = true
	}
	if !flagged["P3"] || !flagged["P4"] {
		t.Errorf("want SB103 on P3 and P4, got:\n%s", res)
	}
	if flagged["P0"] || flagged["P1"] || flagged["P2"] {
		t.Errorf("pipeline processes wrongly flagged:\n%s", res)
	}
}

func TestMP3ThreeSegmentCongestionWarning(t *testing.T) {
	res := RunModels(apps.MP3Model(), apps.MP3Platform3(apps.MP3PackageSize), Options{})
	if res.HasErrors() {
		t.Fatalf("MP3 3-seg reported errors:\n%s", res)
	}
	ws := findAll(res, CodeBUImbalance)
	if len(ws) != 1 {
		t.Fatalf("want one SB301, got:\n%s", res)
	}
	w := ws[0]
	if w.Severity != SeverityWarning || w.Element != "BU12" {
		t.Errorf("SB301 = %v, want warning on BU12", w)
	}
	// The paper's figure: 32 packages cross BU12, one crosses BU23.
	if !strings.Contains(w.Message, "BU12 carries 32 packages") ||
		!strings.Contains(w.Message, "BU23 carries 1") {
		t.Errorf("SB301 message lacks the 32-vs-1 figure: %q", w.Message)
	}
	if !strings.Contains(w.Message, "P3 (31)") {
		t.Errorf("SB301 does not name P3 as heaviest contributor: %q", w.Message)
	}
}

func TestMP3SingleSegmentQuiet(t *testing.T) {
	res := RunModels(apps.MP3Model(), apps.MP3Platform1(apps.MP3PackageSize), Options{})
	if len(findAll(res, CodeBUImbalance)) != 0 || len(findAll(res, CodeSegmentImbalance)) != 0 {
		t.Errorf("single-segment platform reported congestion:\n%s", res)
	}
}

func TestUnusedSegmentationInfo(t *testing.T) {
	m := psdf.NewModel("local")
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 2, Target: 3, Items: 36, Order: 1, Ticks: 5})
	p := platform.New("split", 100*platform.MHz, 36)
	p.AddSegment(100*platform.MHz, 0, 1)
	p.AddSegment(100*platform.MHz, 2, 3)
	res := RunModels(m, p, Options{})
	if len(findAll(res, CodeUnusedSegmentation)) != 1 {
		t.Errorf("want SB303 for intra-only traffic, got:\n%s", res)
	}
}

func TestResultJSONRoundTrips(t *testing.T) {
	res := RunModels(apps.MP3Model(), apps.MP3Platform3(36), Options{})
	raw, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Version     int          `json:"version"`
		Model       string       `json:"model"`
		Platform    string       `json:"platform"`
		Diagnostics []Diagnostic `json:"diagnostics"`
		Bounds      *Bounds      `json:"bounds"`
	}
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if decoded.Version != 1 || decoded.Model != "mp3-decoder" || decoded.Bounds == nil {
		t.Errorf("decoded = %+v", decoded)
	}
	if len(decoded.Diagnostics) != len(res.Diagnostics) {
		t.Errorf("diagnostics lost in JSON round trip")
	}
	if !strings.Contains(string(raw), `"severity": "warning"`) {
		t.Errorf("severity not rendered as a string:\n%s", raw)
	}
}

func TestDiagnosticsSortedBySeverity(t *testing.T) {
	m := psdf.NewModel("mixed")
	m.AddFlow(psdf.Flow{Source: 0, Target: 0, Items: 10, Order: 1, Ticks: 5}) // error SB006
	m.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 1, Ticks: 5})
	m.AddFlow(psdf.Flow{Source: 1, Target: 0, Items: 36, Order: 1, Ticks: 5})
	res := RunModels(m, nil, Options{})
	if !sort.SliceIsSorted(res.Diagnostics, func(i, j int) bool {
		return res.Diagnostics[i].Severity < res.Diagnostics[j].Severity
	}) {
		t.Errorf("diagnostics not sorted most-severe first:\n%s", res)
	}
}

func TestFromErrorUnwrapsSchemaStyleErrors(t *testing.T) {
	m := psdf.NewModel("broken")
	m.AddFlow(psdf.Flow{Source: 0, Target: 0, Items: 10, Order: 1, Ticks: 5})
	err := m.Validate()
	if err == nil {
		t.Fatal("model unexpectedly valid")
	}
	wrapped := fmt.Errorf("schema: parsed PSDF model is invalid: %w", err)
	ds, ok := FromError(wrapped)
	if !ok || len(ds) == 0 {
		t.Fatalf("FromError failed on wrapped validation errors: %v", wrapped)
	}
	if ds[0].Code != psdf.CodeSelfLoop {
		t.Errorf("FromError code = %q, want SB006", ds[0].Code)
	}

	p := platform.New("empty", 0, 0)
	perr := p.Validate()
	pds, ok := FromError(perr)
	if !ok || len(pds) == 0 {
		t.Fatalf("FromError failed on constraint violations: %v", perr)
	}
	if _, ok := FromError(fmt.Errorf("plain")); ok {
		t.Error("FromError matched a plain error")
	}
}

func TestCodeTableIsSortedUniqueAndCoversEmissions(t *testing.T) {
	table := CodeTable()
	seen := make(map[string]bool)
	prev := ""
	for _, ci := range table {
		if ci.Code <= prev {
			t.Errorf("code table not strictly ascending at %s", ci.Code)
		}
		prev = ci.Code
		if seen[ci.Code] {
			t.Errorf("duplicate code %s", ci.Code)
		}
		seen[ci.Code] = true
	}

	// Drive the analyzers over deliberately broken inputs and verify
	// every emitted code is documented.
	var emitted []Diagnostic
	collect := func(res *Result) { emitted = append(emitted, res.Diagnostics...) }

	bad := psdf.NewModel("bad")
	bad.AddProcess(9)
	bad.AddFlow(psdf.Flow{Source: 0, Target: 0, Items: -1, Order: -1, Ticks: -1})
	bad.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 2, Ticks: 5})
	bad.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: 36, Order: 2, Ticks: 5})
	bad.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 1, Ticks: 5})
	bad.AddFlow(psdf.Flow{Source: 3, Target: 4, Items: 36, Order: 3, Ticks: 5})
	bad.AddFlow(psdf.Flow{Source: 4, Target: 3, Items: 36, Order: 3, Ticks: 5})
	bad.AddFlow(psdf.Flow{Source: 1, Target: 2, Items: 36, Order: 9, Ticks: 5})
	collect(RunModels(bad, nil, Options{}))

	badPlat := platform.New("badplat", 0, -1)
	badPlat.HeaderTicks = -1
	badPlat.CAHopTicks = -1
	seg := badPlat.AddSegment(-1)
	seg.Index = 7
	collect(RunModels(apps.MP3Model(), badPlat, Options{}))

	collect(RunModels(apps.MP3Model(), apps.MP3Platform3(36), Options{}))
	collect(RunModels(apps.MP3Model(), apps.MP3Platform3(18), Options{}))    // SB041
	collect(RunModels(apps.MP3Model(), apps.MP3Platform3(1<<31), Options{})) // SB033
	huge := psdf.NewModel("huge")
	huge.AddFlow(psdf.Flow{Source: 0, Target: 1, Items: sched.MaxPackages + 1, Order: 1, Ticks: 5})
	hugePlat := platform.New("huge-plat", 100*platform.MHz, 1)
	hugePlat.AddSegment(100*platform.MHz, 0, 1)
	collect(RunModels(huge, hugePlat, Options{})) // SB034

	for _, d := range emitted {
		if !seen[d.Code] {
			t.Errorf("emitted code %s (%s) missing from CodeTable", d.Code, d.Message)
		}
	}
}

func TestRunOnDSLDocument(t *testing.T) {
	src := `application demo
flow P0 -> P1 items=36 order=1 ticks=5
flow P1 -> out items=36 order=2 ticks=5
platform demo-plat
ca-clock 100MHz
package-size 36
segment 1 clock=100MHz processes=P0,P1
`
	doc, err := dsl.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(doc, Options{})
	if res.HasErrors() {
		t.Fatalf("demo document reported errors:\n%s", res)
	}
	if res.Model != "demo" || res.Platform != "demo-plat" {
		t.Errorf("header = %q on %q", res.Model, res.Platform)
	}
	if res.Bounds == nil {
		t.Error("no bounds for a platformed document")
	}
}
