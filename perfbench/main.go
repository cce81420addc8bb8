// perfbench is the repository's end-to-end benchmark: seeded serving
// and design-space exploration workloads, every output checked against
// an oracle, with end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 10 --trace 0
//
// Workloads: serve_cold, serve_warm, serve_batch and explore_mp3 (see
// README.md in this directory). With --trace 0 the last line of
// standard output carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics and the spans of the replay are written
// under .bench_build/spans/. The line before it describes the run: the
// environment, the input's properties and sample counts.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

var workloads = []string{"serve_cold", "serve_warm", "serve_batch", "explore_mp3"}

// Set-up is repeated and its median reported, so work moved into
// set-up shows without one slow start deciding the figure.
const (
	serveSetupReps   = 5
	exploreSetupReps = 3
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd and perLayer list every metric with its unit, in the order
// BENCHMARK.json names them.
var endToEnd = [][2]string{
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"throughput_rps", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = [][2]string{
	{"transport.healthz_rtt_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.raw_probe_us", "us"},
	{"serve.raw_hit_ratio", "ratio"},
	{"schema.parse_psdf_us", "us"},
	{"schema.parse_psm_us", "us"},
	{"schema.parse_allocs", "count"},
	{"analyze.preflight_us", "us"},
	{"core.key_us", "us"},
	{"core.key_allocs", "count"},
	{"serve.cache_get_us", "us"},
	{"serve.cache_put_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_evictions", "count"},
	{"pool.get_us", "us"},
	{"pool.warm_ratio", "ratio"},
	{"emulator.run_us", "us"},
	{"emulator.steps", "count"},
	{"emulator.ns_per_step", "ns"},
	{"emulator.allocs", "count"},
	{"emulator.report_json_us", "us"},
	{"serve.emulations_per_miss", "ratio"},
	{"serve.batch_dedup_ratio", "ratio"},
	{"explore.enumerate_ms", "ms"},
	{"explore.bounds_ms", "ms"},
	{"explore.emulate_ms", "ms"},
	{"explore.power_ms", "ms"},
	{"explore.generated", "count"},
	{"explore.pruned", "count"},
	{"explore.emulated", "count"},
	{"explore.pruning_ratio", "ratio"},
	{"explore.prune_cost_ratio", "ratio"},
	{"perfbench.trace_overhead_pct", "%"},
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run parses the flags, runs one workload and prints the result. It
// returns 2 for bad usage, 1 for an error or a failed check, 0 otherwise.
func run(args []string, stdout io.Writer) (int, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "one of "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fl.Int("seconds", 10, "length of the measured phase")
	trace := fl.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2, err
	}
	if !contains(workloads, *workload) {
		return 2, fmt.Errorf("--workload must be one of %s", strings.Join(workloads, ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
	}
	d := time.Duration(*seconds) * time.Second

	var o *outcome
	var err error
	switch {
	case *workload == "explore_mp3" && *trace == 0:
		o, err = exploreRun(*seed, d)
	case *workload == "explore_mp3":
		o, err = exploreTraceRun(*seed, d)
	case *trace == 0:
		o, err = serveRun(*workload, *seed, d)
	default:
		o, err = serveTraceRun(*workload, *seed, d)
	}
	if err != nil {
		return 1, err
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	res := Result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]Metric{}}
	for _, nu := range names {
		v, ok := o.metrics[nu[0]]
		if !ok {
			v = 0 // a layer this workload never calls
		}
		res.Metrics[nu[0]] = Metric{Value: v, Unit: nu[1]}
	}
	o.details["workload"] = *workload
	o.details["seed"] = *seed
	o.details["seconds"] = *seconds
	o.details["trace"] = *trace
	o.details["env"] = environment()
	o.details["fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	if o.attempted < 1 {
		return 1, fmt.Errorf("no operation attempted")
	}
	detail, err := json.Marshal(map[string]any{"perfbench_details": o.details})
	if err != nil {
		return 1, err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, line)
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d operations failed", o.failed, o.attempted)
	}
	return 0, nil
}

// outcome is what one workload run reports.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
	details           map[string]any
}

func serveRun(workload string, seed int64, d time.Duration) (*outcome, error) {
	b, err := newServeBench(workload, seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var t *target
	for rep := 0; rep < serveSetupReps; rep++ {
		if t != nil {
			t.close()
		}
		t0 := time.Now()
		if t, err = b.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	lr := b.loop(t, d)
	t.close()
	lat := sortedCopy(lr.lat)
	o := &outcome{
		attempted: lr.items,
		failed:    lr.failed,
		metrics: map[string]float64{
			"latency_p50_us": quantile(lat, 0.50) / 1e3,
			"latency_p90_us": quantile(lat, 0.90) / 1e3,
			"throughput_rps": float64(len(lat)) / lr.elapsed.Seconds(),
			"setup_s":        median(setups),
			"peak_rss_mb":    peakRSSMB(),
		},
		details: map[string]any{
			"inputs":           b.properties(lr.ops),
			"samples":          len(lat),
			"latency_p99_us":   quantile(lat, 0.99) / 1e3,
			"latency_max_us":   quantile(lat, 1) / 1e3,
			"timed_s":          lr.elapsed.Seconds(),
			"setup_runs_s":     setups,
			"stream_exhausted": lr.exhausted,
			"failures":         b.failures,
		},
	}
	return o, nil
}

func serveTraceRun(workload string, seed int64, d time.Duration) (*outcome, error) {
	b, err := newServeBench(workload, seed)
	if err != nil {
		return nil, err
	}
	// The untraced closed loop, for the counters the program exposes.
	t, err := b.setup()
	if err != nil {
		return nil, err
	}
	emu0 := t.emulations.Load()
	lr := b.loop(t, d/2)
	emulations := t.emulations.Load() - emu0
	var hits, misses, evictions int64
	for _, st := range t.srv.Cache().ShardStats() {
		hits += st.Hits
		misses += st.Misses
		evictions += st.Evictions
	}
	rtt, err := t.healthzRTT(200)
	t.close()
	if err != nil {
		return nil, err
	}

	// The replay: two replayers on fresh state, one recording spans and
	// one not, take the same stream in lockstep, alternating which goes
	// first, so drift over the run falls on both sides alike.
	on, err := newReplayer(b, wallClock)
	if err != nil {
		return nil, err
	}
	off, err := newReplayer(b, noClock)
	if err != nil {
		return nil, err
	}
	var onWall, offWall []int64
	stop := time.Now().Add(d / 2)
	n := 0
	for ; n < 2 || time.Now().Before(stop); n++ {
		first, second := on, off
		if n%2 == 1 {
			first, second = off, on
		}
		w1, ok1 := first.run(n)
		w2, ok2 := second.run(n)
		if !ok1 || !ok2 {
			break
		}
		if first == on {
			onWall, offWall = append(onWall, w1), append(offWall, w2)
		} else {
			onWall, offWall = append(onWall, w2), append(offWall, w1)
		}
	}
	replayItems := int64(2*n + min(n, 200))
	if workload == "serve_batch" {
		replayItems *= batchItems
	}
	var steps, nsPerStep []float64
	for k, si := range on.stepSpan {
		s := on.rec.spans[si]
		steps = append(steps, on.steps[k])
		nsPerStep = append(nsPerStep, float64(s.End-s.Start)/on.steps[k])
	}
	self := selfTimes(on.rec.spans)
	us := func(name string) float64 { return median(self[name]) / 1e3 }

	// Allocation counts: a third replayer whose spans read the
	// allocation counter, over the first 200 operations.
	counted, err := newReplayer(b, allocClock)
	if err != nil {
		return nil, err
	}
	for i := 0; i < min(n, 200); i++ {
		counted.run(i)
	}
	allocs := selfTimes(counted.rec.spans)
	count := func(name string) float64 { return median(allocs[name]) }

	spanFile, err := writeSpans(workload, seed, on.rec.spans)
	if err != nil {
		return nil, err
	}
	metrics := map[string]float64{
		"transport.healthz_rtt_us":     median(int64s(rtt)) / 1e3,
		"serve.decode_us":              us(spanDecode),
		"serve.raw_probe_us":           us(spanRawProbe),
		"serve.raw_hit_ratio":          ratio(float64(on.rawHits), float64(on.rawProbes)),
		"schema.parse_psdf_us":         us(spanParsePSDF),
		"schema.parse_psm_us":          us(spanParsePSM),
		"schema.parse_allocs":          count(spanParsePSDF) + count(spanParsePSM),
		"analyze.preflight_us":         us(spanPreflight),
		"core.key_us":                  us(spanKey),
		"core.key_allocs":              count(spanKey),
		"serve.cache_get_us":           us(spanCacheGet),
		"serve.cache_put_us":           us(spanCachePut),
		"serve.cache_hit_ratio":        ratio(float64(hits), float64(hits+misses)),
		"serve.cache_evictions":        float64(evictions),
		"pool.get_us":                  us(spanPoolGet),
		"pool.warm_ratio":              ratio(float64(on.poolWarm), float64(on.poolGets)),
		"emulator.run_us":              us(spanEmulate),
		"emulator.steps":               median(steps),
		"emulator.ns_per_step":         median(nsPerStep),
		"emulator.allocs":              count(spanEmulate),
		"emulator.report_json_us":      us(spanReportJSON),
		"serve.emulations_per_miss":    ratio(float64(emulations), float64(lr.misses)),
		"serve.batch_dedup_ratio":      ratio(float64(lr.dedup), float64(lr.items)),
		"perfbench.trace_overhead_pct": 100 * (ratio(median(int64s(onWall)), median(int64s(offWall))) - 1),
	}
	spanCounts := make(map[string]int, len(self))
	for name, v := range self {
		spanCounts[name] = len(v)
	}
	return &outcome{
		attempted: lr.items + replayItems,
		failed:    lr.failed + int64(on.failed+off.failed+counted.failed),
		metrics:   metrics,
		details: map[string]any{
			"inputs":             b.properties(lr.ops),
			"replay_requests":    n,
			"replay_span_counts": spanCounts,
			"replay_wall_on_us":  median(int64s(onWall)) / 1e3,
			"replay_wall_off_us": median(int64s(offWall)) / 1e3,
			"loop_emulations":    emulations,
			"loop_misses":        lr.misses,
			"healthz_samples":    len(rtt),
			"spans_file":         spanFile,
			"failures":           b.failures,
		},
	}, nil
}

func exploreRun(seed int64, d time.Duration) (*outcome, error) {
	e := &exploreBench{seed: seed}
	var setups []float64
	for rep := 0; rep < exploreSetupReps; rep++ {
		t0 := time.Now()
		if err := e.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	walls, busy, failed, err := e.timed(d)
	if err != nil {
		return nil, err
	}
	w := sortedCopy(walls)
	return &outcome{
		attempted: int64(len(walls)),
		failed:    int64(failed),
		metrics: map[string]float64{
			"latency_p50_us": quantile(w, 0.50) / 1e3,
			"latency_p90_us": quantile(w, 0.90) / 1e3,
			"throughput_rps": float64(len(walls)) / busy.Seconds(),
			"setup_s":        median(setups),
			"peak_rss_mb":    peakRSSMB(),
		},
		details: map[string]any{
			"inputs": map[string]any{
				"space":      e.space.Name,
				"candidates": e.space.Size(),
				"workers":    runtime.NumCPU(),
			},
			"samples":         len(walls),
			"explore_wall_ms": median(int64s(walls)) / 1e6,
			"setup_runs_s":    setups,
			"failures":        e.failures,
		},
	}, nil
}

func exploreTraceRun(seed int64, d time.Duration) (*outcome, error) {
	e := &exploreBench{seed: seed}
	if err := e.setup(); err != nil {
		return nil, err
	}
	metrics, attempted, failed, err := e.traced(d)
	if err != nil {
		return nil, err
	}
	return &outcome{
		attempted: int64(attempted),
		failed:    int64(failed),
		metrics:   metrics,
		details: map[string]any{
			"inputs":   map[string]any{"space": e.space.Name, "candidates": e.space.Size(), "workers": runtime.NumCPU()},
			"failures": e.failures,
		},
	}, nil
}

// selfTimes returns each span name's self times in ns: a call span's
// duration, and for a request span its duration less its calls'.
func selfTimes(spans []Span) map[string][]float64 {
	children := make(map[int]int64) // request span id → ns covered by its calls
	out := make(map[string][]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start-children[s.ID]))
		}
	}
	return out
}

// writeSpans writes the replay's spans under .bench_build/spans.
func writeSpans(workload string, seed int64, spans []Span) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// environment stamps a result with the machine and the code it ran.
func environment() map[string]any {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"cpu_model":  model,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit(),
	}
}

// commit names the code under test: the VCS revision the binary was
// built from, or, outside a git checkout, a hash of the module's Go
// sources and go.mod.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || path == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func int64s(v []int64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func sortedCopy(v []int64) []float64 {
	out := int64s(v)
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
