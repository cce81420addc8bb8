package obs

// The design-space explorer's metric catalogue. Counters and the
// pruning-ratio gauge are deterministic for a given space (the
// wave-synchronised pruning makes them independent of the worker
// count); the per-stage busy-time totals are volatile, so the
// deterministic JSON export — and with it the explorer's byte-stable
// output guarantee — never carries timing noise.
const (
	// MetricExploreGenerated counts candidates enumerated from the
	// space specification.
	MetricExploreGenerated = "segbus_explore_candidates_generated_total"

	// MetricExplorePruned counts candidates discarded without
	// emulation because an already-emulated point strictly dominated
	// their analytic lower bounds on every objective.
	MetricExplorePruned = "segbus_explore_candidates_pruned_total"

	// MetricExploreEmulated counts candidates that paid a full
	// emulation. generated = pruned + emulated + errors.
	MetricExploreEmulated = "segbus_explore_candidates_emulated_total"

	// MetricExploreErrors counts candidates whose bounds or emulation
	// failed; they are excluded from the front.
	MetricExploreErrors = "segbus_explore_candidate_errors_total"

	// MetricExploreWaves counts pruning waves executed.
	MetricExploreWaves = "segbus_explore_waves_total"

	// MetricExploreFrontSize is the size of the final Pareto front.
	MetricExploreFrontSize = "segbus_explore_front_size"

	// MetricExplorePruningRatio is pruned/generated of the last run.
	MetricExplorePruningRatio = "segbus_explore_pruning_ratio"

	// MetricExploreStageNs totals stage busy time, summed over
	// workers, by stage label (bounds, emulate, power). Volatile:
	// excluded from the deterministic export.
	MetricExploreStageNs = "segbus_explore_stage_ns_total"
)

// ExploreMetrics bundles the resolved handles for one explorer run.
// Nil-safe end to end like every obs handle set.
type ExploreMetrics struct {
	Generated    *Counter
	Pruned       *Counter
	Emulated     *Counter
	Errors       *Counter
	Waves        *Counter
	FrontSize    *Gauge
	PruningRatio *Gauge

	StageBounds  *Gauge
	StageEmulate *Gauge
	StagePower   *Gauge
}

// NewExploreMetrics resolves the static handles of the explorer
// catalogue and registers the help strings. reg may be nil.
func NewExploreMetrics(reg *Registry) *ExploreMetrics {
	m := &ExploreMetrics{
		Generated:    reg.Counter(MetricExploreGenerated),
		Pruned:       reg.Counter(MetricExplorePruned),
		Emulated:     reg.Counter(MetricExploreEmulated),
		Errors:       reg.Counter(MetricExploreErrors),
		Waves:        reg.Counter(MetricExploreWaves),
		FrontSize:    reg.Gauge(MetricExploreFrontSize),
		PruningRatio: reg.Gauge(MetricExplorePruningRatio),
		StageBounds:  reg.VolatileGauge(MetricExploreStageNs, "stage", "bounds"),
		StageEmulate: reg.VolatileGauge(MetricExploreStageNs, "stage", "emulate"),
		StagePower:   reg.VolatileGauge(MetricExploreStageNs, "stage", "power"),
	}
	reg.Describe(MetricExploreGenerated, "candidates enumerated from the space spec")
	reg.Describe(MetricExplorePruned, "candidates discarded on analytic bounds without emulation")
	reg.Describe(MetricExploreEmulated, "candidates emulated")
	reg.Describe(MetricExploreErrors, "candidates whose bounds or emulation failed")
	reg.Describe(MetricExploreWaves, "pruning waves executed")
	reg.Describe(MetricExploreFrontSize, "points on the final Pareto front")
	reg.Describe(MetricExplorePruningRatio, "pruned/generated of the last explorer run")
	reg.Describe(MetricExploreStageNs, "explorer stage busy time (summed over workers) by stage, nanoseconds")
	return m
}
