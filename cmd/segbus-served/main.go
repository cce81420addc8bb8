// segbus-served is the long-lived estimation service: the same
// pipeline segbus-emu runs once per invocation (parse schemes →
// preflight → emulate → report), kept hot behind HTTP so a
// design-space exploration can probe many candidates cheaply.
// Repeated probes are answered from a content-addressed result cache;
// concurrency is bounded by a worker pool with queue-full
// backpressure (429) and per-request deadlines (504); SIGTERM/SIGINT
// trigger a graceful drain.
//
// Usage:
//
//	segbus-served -addr :8080 [-workers 8] [-queue 16] [-cache 1024]
//	              [-cache-shards 8] [-max-batch 64]
//	              [-timeout 30s] [-drain-timeout 10s]
//	              [-trace-sample 0] [-trace-seed 1]
//	              [-trace-ring 256] [-trace-slowest 8]
//
// Endpoints:
//
//	POST /estimate  {"psdf": "<scheme>", "psm": "<scheme>",
//	                 "package_size": 36, "policy": "fifo", ...}
//	                → the versioned report JSON of segbus-emu
//	                  -report-json, byte-identical; X-Segbus-Cache
//	                  says hit, miss or coalesced.
//	POST /estimate/batch
//	                {"items": [<estimate request>, ...]}
//	                → 200 envelope with per-item results: items are
//	                  deduplicated by content fingerprint, fanned out
//	                  through the worker pool, and each carries its
//	                  own status/SB9xx code plus the verbatim report
//	                  bytes — one bad item never fails its siblings.
//	GET  /healthz   → 200 while serving, 503 while draining.
//	GET  /metrics   → Prometheus text exposition (requests, latency,
//	                  cache hits/misses per shard, coalesced and batch
//	                  counters, queue rejections, ...); latency buckets
//	                  carry the last traced request's id as an
//	                  OpenMetrics-style exemplar.
//	GET  /debug/requests
//	                → the trace flight recorder (schema
//	                  segbus/reqtrace/v1): the last ?n=K sampled
//	                  request breakdowns plus the slowest ones seen;
//	                  ?trace=<id> returns one breakdown,
//	                  &format=perfetto renders it for ui.perfetto.dev.
//
// Request tracing: a request whose W3C `traceparent` header has the
// sampled flag is always traced (its stage breakdown lands in
// /debug/requests and the response carries X-Segbus-Trace and a
// Traceparent echo); -trace-sample N additionally head-samples every
// Nth estimate. -trace-sample -1 disables tracing entirely.
//
// Like every segbus tool, the shared diagnostics flags -version,
// -cpuprofile and -memprofile are available.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"segbus/internal/obs"
	"segbus/internal/obs/profflag"
	"segbus/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "segbus-served:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until shutdown. ready, when
// non-nil, receives the bound address once the listener is up (tests
// pass -addr 127.0.0.1:0 and read the actual port from it).
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("segbus-served", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent emulations (0: one per CPU)")
	queue := fs.Int("queue", -1, "admitted requests beyond the running ones before 429s (-1: twice the workers)")
	cacheEntries := fs.Int("cache", 1024, "result-cache entries (0: disable caching)")
	cacheShards := fs.Int("cache-shards", 0, "result-cache shards, rounded up to a power of two (0: default of 8; 1: single global LRU)")
	maxBatch := fs.Int("max-batch", 0, "items accepted per /estimate/batch request (0: default of 64)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline, queue wait included (0: none)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long shutdown waits for in-flight requests")
	traceSample := fs.Int("trace-sample", 0, "trace one in N estimate requests (0: only traceparent-forced requests; -1: disable tracing)")
	traceSeed := fs.Uint64("trace-seed", 1, "seed for deterministic trace ids")
	traceRing := fs.Int("trace-ring", 0, "sampled traces kept in the /debug/requests ring (0: default of 256)")
	traceSlowest := fs.Int("trace-slowest", 0, "slowest traces tracked in /debug/requests (0: default of 8)")
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

	reg := obs.NewRegistry()
	s := serve.New(serve.Config{
		Workers:        *workers,
		Queue:          *queue,
		CacheEntries:   *cacheEntries,
		CacheShards:    *cacheShards,
		MaxBatchItems:  *maxBatch,
		RequestTimeout: *timeout,
		Registry:       reg,
		TraceSample:    *traceSample,
		TraceSeed:      *traceSeed,
		TraceRing:      *traceRing,
		TraceSlowest:   *traceSlowest,
	})

	// Catch the shutdown signals before announcing readiness: a SIGTERM
	// that arrives between the two would otherwise kill the process
	// instead of draining it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "segbus-served: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: stop admitting (healthz flips to 503, estimates
	// shed with SB905), wait for in-flight emulations, then close the
	// listener and idle connections.
	fmt.Fprintln(stdout, "segbus-served: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drained := s.Drain(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	<-errc // Serve has returned http.ErrServerClosed by now
	if !drained {
		return fmt.Errorf("drain timed out after %s with requests in flight", *drainTimeout)
	}
	fmt.Fprintln(stdout, "segbus-served: drained, bye")
	return nil
}
