// Package parallel schedules concurrent work.
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
// The package has two schedulers, one per kind of work, and no job
// runner:
//
//   - StealRun, a deterministic work stealer for index-parallel batch
//     work: every task writes only its own index's slot, so the merged
//     result does not depend on the worker count or the steal seed.
//     core.Explore, the sweeps and the design-space explorer run one
//     task per candidate, each emulating through the warm-machine
//     emulator/pool.Run; the automata's level expansion runs one task
//     per frontier state.
//   - Pool, the admission scheduler for serving: bounded in-flight
//     work with a fail-fast queue and cancellable waits.
package parallel
