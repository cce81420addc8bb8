// Package parallel runs many emulations concurrently.
//
// The paper's Java emulator used one thread per platform element to
// mimic hardware concurrency inside a single run. This Go
// implementation makes the opposite trade: one emulation run is a
// deterministic sequential discrete-event simulation (bit-identical
// results on every run — something the thread-pool design could not
// guarantee), and the hardware-scale concurrency budget is spent where
// the estimation technique profits from it: evaluating many candidate
// platform configurations at once during design-space exploration.
//
// The package has two schedulers, one per kind of work:
//
//   - StealRun, a deterministic work stealer for index-parallel batch
//     work. Run executes emulation jobs on it with machines checked out
//     of an emulator pool; it preserves job order in its results
//     regardless of completion order, and keeps going after individual
//     job failures (each result carries its own error, a panicking job
//     included). core.Explore and the sweeps use Run; the explorer and
//     the automata's level expansion call StealRun directly.
//   - Pool, the admission scheduler for serving: bounded in-flight
//     work with a fail-fast queue and cancellable waits.
package parallel

import (
	"fmt"
	"runtime"

	"segbus/internal/emulator"
	"segbus/internal/emulator/pool"
	"segbus/internal/platform"
	"segbus/internal/psdf"
)

// Job is one emulation to run: an application model, a platform
// configuration and the emulator tuning. Label identifies the job in
// results and progress callbacks.
type Job struct {
	Label    string
	Model    *psdf.Model
	Platform *platform.Platform
	Config   emulator.Config
}

// Result pairs a job with its report or error. Index is the job's
// position in the submitted slice.
type Result struct {
	Index  int
	Label  string
	Report *emulator.Report
	Err    error
}

// Options tunes a Run.
type Options struct {
	// Workers is the number of concurrent emulations; zero selects
	// GOMAXPROCS.
	Workers int

	// Seed drives the work-stealing schedule (see StealOptions.Seed);
	// the results do not depend on it.
	Seed int64

	// Progress, when non-nil, is invoked after each completed job
	// (from worker goroutines; the callback must be safe for
	// concurrent use).
	Progress func(Result)
}

// Run executes the jobs on the work-stealing scheduler and returns one
// result per job, in submission order. Individual failures do not
// abort the run. Every emulation runs on a machine checked out of a
// pool private to the call, so jobs sharing a platform shape reuse
// warm arenas instead of constructing machines, and stragglers
// rebalance instead of serialising the tail.
func Run(jobs []Job, opts Options) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	machines := pool.New(pool.Options{PerKey: w})
	StealRun(len(jobs), StealOptions{Workers: opts.Workers, Seed: opts.Seed}, func(i int) {
		results[i] = runOne(i, jobs[i], machines)
		if opts.Progress != nil {
			opts.Progress(results[i])
		}
	})
	return results
}

// runOne runs one job on a pooled machine. A panicking run does not
// return its machine — Reset is total, but a machine whose run tore a
// hole in the stack is not worth salvaging.
func runOne(i int, j Job, machines *pool.Pool) (r Result) {
	r = Result{Index: i, Label: j.Label}
	// The named result lets the recovery overwrite what the panicking
	// call left behind.
	defer func() {
		if p := recover(); p != nil {
			r.Err = fmt.Errorf("parallel: job %q panicked: %v", j.Label, p)
			r.Report = nil
		}
	}()
	key := pool.ShapeKey(j.Model, j.Platform)
	mc, _ := machines.Get(key)
	r.Report, r.Err = mc.Run(j.Model, j.Platform, j.Config)
	machines.Put(key, mc)
	return r
}
