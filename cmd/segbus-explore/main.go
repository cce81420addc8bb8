// segbus-explore searches a configuration space for Pareto-optimal
// platforms: it enumerates segment counts × placement strategies ×
// package sizes × protocol overheads over one application model,
// prunes candidates whose analytic latency/energy lower bounds are
// already dominated by an emulated point, and emulates the rest on a
// deterministic work-stealing pool. The latency-vs-energy Pareto
// front lands on stdout, byte-identical for every -workers value.
//
// Usage:
//
//	segbus-explore -app mp3 -segments 1,2,3,4 -sizes 9,18,36,72
//	segbus-explore -model design.sbd -spec space.json -workers 8 -json out.json
//	segbus-explore -app mp3 -reference -csv front.csv -timings
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"segbus/internal/apps"
	"segbus/internal/dsl"
	"segbus/internal/explore"
	"segbus/internal/obs"
	"segbus/internal/obs/profflag"
	"segbus/internal/psdf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "segbus-explore:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("segbus-explore", flag.ContinueOnError)
	app := fs.String("app", "", "built-in application model: mp3")
	modelPath := fs.String("model", "", "textual model description (.sbd); its platform section is ignored — the space supplies platforms")
	specPath := fs.String("spec", "", "JSON space specification file (see explore.Space)")
	reference := fs.Bool("reference", false, "use the built-in 10240-candidate MP3 reference space")
	segments := fs.String("segments", "", "comma-separated segment counts")
	mappings := fs.String("mappings", "", "comma-separated placement strategies: solve, round-robin")
	sizes := fs.String("sizes", "", "comma-separated package sizes")
	headers := fs.String("headers", "", "comma-separated protocol header ticks")
	cahops := fs.String("cahops", "", "comma-separated CA hop set-up ticks")
	clocks := fs.String("clocks", "", "comma-separated segment clocks in MHz (cycled over segments)")
	caClock := fs.Int("ca-clock", 0, "CA clock in MHz (0: default 111)")
	workers := fs.Int("workers", 0, "concurrent workers (0: GOMAXPROCS); changes wall-clock only, never output")
	seed := fs.Int64("seed", 0, "work-stealing schedule seed (schedule reproducibility; results are seed independent)")
	wave := fs.Int("wave", 0, "candidates emulated between prune passes (0: default)")
	noPrune := fs.Bool("no-prune", false, "disable bounds pruning and emulate every candidate")
	jsonPath := fs.String("json", "", "write the full deterministic JSON report to this file")
	csvPath := fs.String("csv", "", "write the Pareto front as CSV to this file")
	timings := fs.Bool("timings", false, "print per-stage busy-time totals (summed over workers) to stderr")
	heartbeat := fs.Duration("heartbeat", 0, "print a progress line to stderr at this interval (0: off)")
	pf := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if pf.PrintVersion(stdout) {
		return nil
	}
	if err := pf.Start(); err != nil {
		return err
	}
	defer pf.Stop(os.Stderr)

	m, err := loadModel(*app, *modelPath)
	if err != nil {
		return err
	}
	space, err := buildSpace(*specPath, *reference, axisFlags{
		segments: *segments, mappings: *mappings, sizes: *sizes,
		headers: *headers, cahops: *cahops, clocks: *clocks, caClock: *caClock,
	})
	if err != nil {
		return err
	}

	opts := explore.Options{Workers: *workers, Seed: *seed, WaveSize: *wave, NoPrune: *noPrune}
	if *heartbeat > 0 {
		opts.Heartbeat = obs.NewHeartbeat(os.Stderr, "candidate", *heartbeat, space.Size())
	}
	res, err := explore.Run(m, space, opts)
	if err != nil {
		return err
	}

	fmt.Fprint(stdout, res.Summary())
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, res.FrontTable())
	if *timings {
		fmt.Fprint(os.Stderr, res.TimingSummary())
	}
	if *jsonPath != "" {
		js, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(js, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *jsonPath)
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(res.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *csvPath)
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d candidates failed; see the JSON report for details", res.Errors)
	}
	return nil
}

func loadModel(app, modelPath string) (*psdf.Model, error) {
	switch {
	case app != "" && modelPath != "":
		return nil, fmt.Errorf("-app and -model are mutually exclusive")
	case app == "mp3":
		return apps.MP3Model(), nil
	case app != "":
		return nil, fmt.Errorf("unknown -app %q (want mp3)", app)
	case modelPath != "":
		f, err := os.Open(modelPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		doc, err := dsl.Parse(f)
		if err != nil {
			return nil, err
		}
		if diags := doc.Validate(); diags.HasErrors() {
			return nil, fmt.Errorf("model validation failed:\n%s", diags)
		}
		return doc.Model, nil
	default:
		return nil, fmt.Errorf("one of -app or -model is required")
	}
}

type axisFlags struct {
	segments, mappings, sizes, headers, cahops, clocks string
	caClock                                            int
}

func (a axisFlags) any() bool {
	return a.segments != "" || a.mappings != "" || a.sizes != "" ||
		a.headers != "" || a.cahops != "" || a.clocks != "" || a.caClock != 0
}

// buildSpace resolves the three space sources in precedence order:
// -spec file, -reference, axis flags. Axis flags may refine a spec or
// the reference space; a space built from flags alone needs at least
// -segments and -sizes.
func buildSpace(specPath string, reference bool, ax axisFlags) (*explore.Space, error) {
	var space explore.Space
	switch {
	case specPath != "" && reference:
		return nil, fmt.Errorf("-spec and -reference are mutually exclusive")
	case specPath != "":
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		dec := json.NewDecoder(strings.NewReader(string(data)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&space); err != nil {
			return nil, fmt.Errorf("%s: %w", specPath, err)
		}
	case reference:
		space = *explore.ReferenceMP3Space()
	default:
		if !ax.any() {
			return nil, fmt.Errorf("no space: pass -spec, -reference, or axis flags (-segments, -sizes, ...)")
		}
	}
	if err := applyAxes(&space, ax); err != nil {
		return nil, err
	}
	return &space, nil
}

func applyAxes(space *explore.Space, ax axisFlags) error {
	setInts := func(dst *[]int, arg, name string) error {
		if arg == "" {
			return nil
		}
		var out []int
		for _, p := range strings.Split(arg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("bad %s value %q", name, p)
			}
			out = append(out, n)
		}
		*dst = out
		return nil
	}
	if err := setInts(&space.Segments, ax.segments, "-segments"); err != nil {
		return err
	}
	if err := setInts(&space.PackageSizes, ax.sizes, "-sizes"); err != nil {
		return err
	}
	if err := setInts(&space.HeaderTicks, ax.headers, "-headers"); err != nil {
		return err
	}
	if err := setInts(&space.CAHopTicks, ax.cahops, "-cahops"); err != nil {
		return err
	}
	if err := setInts(&space.SegmentClocksMHz, ax.clocks, "-clocks"); err != nil {
		return err
	}
	if ax.mappings != "" {
		var out []string
		for _, p := range strings.Split(ax.mappings, ",") {
			out = append(out, strings.TrimSpace(p))
		}
		space.Mappings = out
	}
	if ax.caClock != 0 {
		space.CAClockMHz = ax.caClock
	}
	return nil
}
