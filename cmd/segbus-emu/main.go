// segbus-emu is the SegBus emulator program: it reads the PSDF and PSM
// XML schemes produced by the model-to-text transformation, rebuilds
// the platform structure, runs the emulation and prints the
// performance report of the paper's section 4 — per-arbiter TCTs and
// request counts, border-unit package counts, per-process start/end
// times and the estimated total execution time.
//
// Usage:
//
//	segbus-emu -psdf gen/mp3-psdf.xsd -psm gen/mp3-psm.xsd [-s 36]
//	           [-refined] [-timeline] [-gantt] [-bu] [-csv out.csv]
//	           [-metrics-json m.json] [-metrics-prom m.prom]
//	           [-trace-perfetto trace.json]
//
// -metrics-json writes the run's monitoring counters as deterministic
// JSON (wall-clock rates excluded); -metrics-prom writes the same
// registry in Prometheus text exposition (rates included);
// -trace-perfetto writes the execution trace as Chrome trace-event
// JSON loadable at ui.perfetto.dev. Like every segbus tool, the
// shared diagnostics flags -version, -cpuprofile and -memprofile are
// available (see internal/obs/profflag).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"segbus/internal/analyze"
	"segbus/internal/core"
	"segbus/internal/emulator"
	"segbus/internal/obs"
	"segbus/internal/obs/profflag"
	"segbus/internal/power"
	"segbus/internal/psdf"
	"segbus/internal/realplat"
	report2 "segbus/internal/report"
	"segbus/internal/schema"
	"segbus/internal/stats"
	"segbus/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "segbus-emu:", err)
		os.Exit(1)
	}
}

// diagnosed unpacks an XML-scheme parse failure: when the scheme is
// well-formed XML but describes a broken model, every coded validation
// finding goes to stderr and the returned error only summarizes.
func diagnosed(path string, err error) error {
	ds, ok := analyze.FromError(err)
	if !ok {
		return err
	}
	for _, d := range ds {
		fmt.Fprintf(os.Stderr, "%s: %s\n", path, d)
	}
	return fmt.Errorf("%s: %d validation finding(s)", path, len(ds))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("segbus-emu", flag.ContinueOnError)
	psdfPath := fs.String("psdf", "", "PSDF XML scheme (required)")
	psmPath := fs.String("psm", "", "PSM XML scheme (required)")
	pkg := fs.Int("s", 0, "package size override (default: the scheme's)")
	iterations := fs.Int("iterations", 1, "emulate this many back-to-back frames of the application")
	refined := fs.Bool("refined", false, "run the refined (ground-truth) timing model instead of the estimation model")
	timeline := fs.Bool("timeline", false, "print the per-process progress timeline (Figure 10 view)")
	gantt := fs.Bool("gantt", false, "print the per-element activity graph (Figure 11 view)")
	buAnalysis := fs.Bool("bu", false, "print the border-unit UP/WP analysis")
	showPower := fs.Bool("power", false, "print the activity-based energy estimate")
	showUtil := fs.Bool("util", false, "print the per-element utilisation table")
	showCongestion := fs.Bool("congestion", false, "print the border-unit congestion analysis")
	showStages := fs.Bool("stages", false, "print the schedule-stage timing breakdown")
	csvPath := fs.String("csv", "", "write the trace intervals as CSV to this file")
	svgTimeline := fs.String("svg-timeline", "", "write the Figure 10 timeline as SVG to this file")
	svgActivity := fs.String("svg-activity", "", "write the Figure 11 activity graph as SVG to this file")
	htmlPath := fs.String("html", "", "write a self-contained HTML report (tables, figures, energy) to this file")
	jsonPath := fs.String("json", "", "write the trace as versioned JSON to this file")
	reportJSONPath := fs.String("report-json", "", "write the report as versioned JSON to this file")
	metricsJSONPath := fs.String("metrics-json", "", "write the run's metrics as deterministic JSON to this file")
	metricsPromPath := fs.String("metrics-prom", "", "write the run's metrics in Prometheus text exposition to this file")
	perfettoPath := fs.String("trace-perfetto", "", "write the trace as Chrome trace-event JSON (Perfetto-loadable) to this file")
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

	if *psdfPath == "" || *psmPath == "" {
		fs.Usage()
		return fmt.Errorf("-psdf and -psm are required")
	}
	psdfXML, err := os.ReadFile(*psdfPath)
	if err != nil {
		return err
	}
	psmXML, err := os.ReadFile(*psmPath)
	if err != nil {
		return err
	}
	m, err := schema.ParsePSDF(psdfXML)
	if err != nil {
		return diagnosed(*psdfPath, err)
	}
	plat, err := schema.ParsePSM(psmXML)
	if err != nil {
		return diagnosed(*psmPath, err)
	}
	if *pkg > 0 {
		plat.PackageSize = *pkg
	}
	if *iterations > 1 {
		m, err = psdf.Repeat(m, *iterations)
		if err != nil {
			return err
		}
	}

	wantTrace := *timeline || *gantt || *csvPath != "" || *svgTimeline != "" || *svgActivity != "" || *showUtil || *htmlPath != "" || *jsonPath != "" || *perfettoPath != ""
	var reg *obs.Registry
	if *metricsJSONPath != "" || *metricsPromPath != "" {
		reg = obs.NewRegistry()
	}

	var report *emulator.Report
	var tr *trace.Trace
	if *refined {
		if wantTrace {
			tr = &trace.Trace{}
		}
		report, err = realplat.Run(m, plat, realplat.Config{Trace: tr, Metrics: reg})
	} else {
		var est *core.Estimation
		est, err = core.Estimate(m, plat, core.Options{Trace: wantTrace, Metrics: reg})
		if est != nil {
			report, tr = est.Report, est.Trace
		}
	}
	if err != nil {
		// The schemes are individually well-formed, but the pair can
		// still disagree (mapping, roles) or deadlock: explain the
		// failure with every coded finding, not just the first.
		if pre := core.Preflight(m, plat); pre.HasErrors() {
			for _, d := range pre.Diagnostics {
				fmt.Fprintln(os.Stderr, d)
				for i, line := range d.Trace {
					fmt.Fprintf(os.Stderr, "  %4d. %s\n", i+1, line)
				}
			}
			e, w, _ := pre.Counts()
			return fmt.Errorf("model failed preflight analysis: %d error(s), %d warning(s)", e, w)
		}
		if ds, ok := analyze.FromError(err); ok {
			for _, d := range ds {
				fmt.Fprintln(os.Stderr, d)
			}
			return fmt.Errorf("emulation aborted: %d coded finding(s)", len(ds))
		}
		return err
	}

	fmt.Fprint(stdout, report)
	if *buAnalysis {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.BUTable(stats.AnalyzeBUs(report)))
	}
	if *showStages {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.StageTable(report))
	}
	if *showCongestion {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.CongestionReport(report))
	}
	if *showPower {
		pw, err := power.Estimate(m, plat, report, power.Params{})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, pw)
	}
	if *showUtil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, stats.UtilisationTable(stats.Utilisations(report, tr)))
	}
	if *timeline {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tr.Timeline())
	}
	if *gantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tr.Gantt(100))
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(tr.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *csvPath)
	}
	if *svgTimeline != "" {
		if err := os.WriteFile(*svgTimeline, []byte(tr.TimelineSVG(900)), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *svgTimeline)
	}
	if *svgActivity != "" {
		if err := os.WriteFile(*svgActivity, []byte(tr.ActivitySVG(900)), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *svgActivity)
	}
	if *reportJSONPath != "" {
		data, err := report.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportJSONPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *reportJSONPath)
	}
	if *jsonPath != "" {
		data, err := tr.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *jsonPath)
	}
	if *perfettoPath != "" {
		data, err := tr.Perfetto()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*perfettoPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *perfettoPath)
	}
	if *metricsJSONPath != "" {
		data, err := reg.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsJSONPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *metricsJSONPath)
	}
	if *metricsPromPath != "" {
		f, err := os.Create(*metricsPromPath)
		if err != nil {
			return err
		}
		if err := reg.WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *metricsPromPath)
	}
	if *htmlPath != "" {
		en, err := power.Estimate(m, plat, report, power.Params{})
		if err != nil {
			return err
		}
		html, err := report2.Render(report2.Input{
			Title:    fmt.Sprintf("SegBus estimate: %s on %s", m.Name(), plat.Name),
			Model:    m,
			Platform: plat,
			Report:   report,
			Trace:    tr,
			Energy:   en,
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*htmlPath, []byte(html), 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *htmlPath)
	}
	return nil
}
