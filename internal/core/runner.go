package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"segbus/internal/emulator"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// Fingerprint renders the report-affecting option fields in a stable
// textual form. Side-channel fields (Trace, Observer, Metrics) are
// excluded on purpose: they record how a run is watched, not what it
// computes, so two runs differing only in them produce byte-identical
// reports.
func (o Options) Fingerprint() string {
	return fmt.Sprintf("detect=%d;policy=%d;grant=%d;sync=%d;caset=%d;careset=%d",
		o.DetectTicks, o.Policy,
		o.Overheads.GrantTicks, o.Overheads.SyncTicks,
		o.Overheads.CASetTicks, o.Overheads.CAResetTicks)
}

// Key returns the content address of an estimation: a hex SHA-256
// over the canonical XML schemes of the model pair (the deterministic
// m2t rendering, so semantically identical documents collide
// regardless of their textual source) and the option fingerprint.
// Equal keys therefore promise byte-identical report JSON, which is
// what makes the key safe to use as a result-cache address.
func Key(m *psdf.Model, plat *platform.Platform, opts Options) (string, error) {
	psdfXML, psmXML, err := Transform(m, plat)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	// Length-framed fields keep the encoding injective.
	fmt.Fprintf(h, "segbus/estimate/v1\n%d\n", len(psdfXML))
	h.Write(psdfXML)
	fmt.Fprintf(h, "\n%d\n", len(psmXML))
	h.Write(psmXML)
	fmt.Fprintf(h, "\n%s\n", opts.Fingerprint())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Runner is a reusable estimation front end: one fixed option set
// applied to many model pairs, as a long-lived service does. The zero
// value runs the paper's estimation model; a Runner
// is safe for concurrent use when its Options are (the shared Metrics
// registry and Observer, if any, must tolerate concurrent runs —
// *obs.Registry does).
type Runner struct {
	Opts Options
}

// NewRunner returns a Runner with the given fixed options.
func NewRunner(opts Options) *Runner { return &Runner{Opts: opts} }

// Key returns the content address of running m on plat under the
// runner's options (see Key).
func (r *Runner) Key(m *psdf.Model, plat *platform.Platform) (string, error) {
	return Key(m, plat, r.Opts)
}

// Estimate runs one estimation under the runner's options.
func (r *Runner) Estimate(m *psdf.Model, plat *platform.Platform) (*Estimation, error) {
	return Estimate(m, plat, r.Opts)
}

// EstimateOn runs one estimation under the runner's options on a
// caller-provided reusable machine (see EstimateOn).
func (r *Runner) EstimateOn(mc *emulator.Machine, m *psdf.Model, plat *platform.Platform) (*Estimation, error) {
	return EstimateOn(mc, m, plat, r.Opts)
}

// ReportJSON runs one estimation and renders the versioned report
// JSON — the serving payload, byte-identical for equal Keys.
func (r *Runner) ReportJSON(m *psdf.Model, plat *platform.Platform) ([]byte, error) {
	est, err := r.Estimate(m, plat)
	if err != nil {
		return nil, err
	}
	return est.Report.JSON()
}

// ReportJSONOn is ReportJSON on a caller-provided reusable machine:
// the serving pool's leader path, producing bytes identical to
// ReportJSON for the same inputs.
func (r *Runner) ReportJSONOn(mc *emulator.Machine, m *psdf.Model, plat *platform.Platform) ([]byte, error) {
	est, err := r.EstimateOn(mc, m, plat)
	if err != nil {
		return nil, err
	}
	return est.Report.JSON()
}
