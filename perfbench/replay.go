package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"segbus/internal/core"
	"segbus/internal/emulator/pool"
	"segbus/internal/obs"
	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/schema"
	"segbus/internal/serve"
)

// Span is one call of the replay. Every call of one request shares Req
// and has the request's own span as Parent; the request span has
// Parent 0. Start and End are readings of the recorder's clock: ns
// since the replay began, or the process's allocation count in the
// allocation pass.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names: the module that owns the public call, then the call.
const (
	spanRequest    = "request"
	spanDecode     = "serve.decode"
	spanRawProbe   = "serve.raw_probe"
	spanParsePSDF  = "schema.parse_psdf"
	spanParsePSM   = "schema.parse_psm"
	spanPreflight  = "analyze.preflight"
	spanKey        = "core.key"
	spanCacheGet   = "serve.cache_get"
	spanPoolGet    = "pool.get"
	spanEmulate    = "emulator.run"
	spanReportJSON = "emulator.report_json"
	spanPoolPut    = "pool.put"
	spanCachePut   = "serve.cache_put"
)

// clockKind selects what a replayer's spans record.
type clockKind int

const (
	noClock    clockKind = iota // no spans, the clock is never read
	wallClock                   // ns since the replay began
	allocClock                  // heap allocations so far
)

// recorder keeps spans in memory; without a clock it records nothing.
type recorder struct {
	clock func() int64
	spans []Span
}

func (r *recorder) now() int64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// open starts the span of request req and returns its id.
func (r *recorder) open(req int) int {
	if r.clock == nil {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Req: req, Name: spanRequest, Start: r.now()})
	return id
}

// close ends request span id.
func (r *recorder) close(id int) {
	if r.clock != nil {
		r.spans[id-1].End = r.now()
	}
}

// add records a call that began at start under request span parent.
func (r *recorder) add(parent int, name string, start int64) {
	if r.clock == nil {
		return
	}
	r.spans = append(r.spans, Span{
		ID: len(r.spans) + 1, Parent: parent, Req: r.spans[parent-1].Req,
		Name: name, Start: start, End: r.now(),
	})
}

// replayer replays a serve stream one request at a time through the
// public calls the server makes, in the server's order, against a fresh
// server whose warm set was served through Handler().ServeHTTP.
type replayer struct {
	b        *serveBench
	srv      *serve.Server
	machines *pool.Pool
	rec      *recorder

	rawProbes, rawHits int
	poolGets, poolWarm int
	steps              []float64 // Report.Steps per emulation
	stepSpan           []int     // index of that emulation's span
	failed             int
}

func newReplayer(b *serveBench, clock clockKind) (*replayer, error) {
	rp := &replayer{
		b: b,
		srv: serve.New(serve.Config{
			CacheEntries:   cacheEntries,
			Queue:          -1,
			RequestTimeout: 30 * time.Second,
			Registry:       obs.NewRegistry(),
			TraceSeed:      1,
		}),
		machines: pool.New(pool.Options{PerKey: pool.DefaultPerKey, MaxShapes: pool.DefaultMaxShapes}),
		rec:      &recorder{},
	}
	h := rp.srv.Handler()
	for _, w := range b.warmups() {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, w.path, bytes.NewReader(b.bodyOf(w.path, w.keys))))
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("warm set %s: status %d: %.200s", w.path, rr.Code, rr.Body.Bytes())
		}
	}
	switch clock {
	case wallClock:
		base := time.Now()
		rp.rec.clock = func() int64 { return time.Since(base).Nanoseconds() }
	case allocClock:
		rp.rec.clock = func() int64 { return int64(mallocs()) }
	}
	return rp, nil
}

// run replays operation i and returns its wall time in ns, excluding
// the oracle check that follows it; false means the stream is
// exhausted.
func (rp *replayer) run(i int) (int64, bool) {
	path, keys, ok := rp.b.op(i, nil)
	if !ok {
		return 0, false
	}
	body := rp.b.bodyOf(path, keys)
	t0 := time.Now()
	var outs [][]byte
	if path == "/estimate/batch" {
		outs = rp.batch(i, body)
	} else {
		outs = [][]byte{rp.single(i, body)}
	}
	wall := time.Since(t0).Nanoseconds()
	for j, k := range keys {
		want, err := rp.b.c.oracle(k)
		if err != nil || outs[j] == nil || !bytes.Equal(outs[j], want) {
			rp.failed++
			rp.b.fail("replay op %d item %d: output differs from the oracle", i, j)
		}
	}
	return wall, true
}

// single replays one POST /estimate: decode, raw probe, then the
// canonical pipeline.
func (rp *replayer) single(i int, body []byte) []byte {
	r := rp.rec
	req := r.open(i)
	defer r.close(req)
	t := r.now()
	var er serve.EstimateRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&er)
	r.add(req, spanDecode, t)
	if err != nil {
		return nil
	}
	t = r.now()
	out, hit := rp.srv.RawProbe(&er)
	r.add(req, spanRawProbe, t)
	rp.rawProbes++
	if hit {
		rp.rawHits++
		return out
	}
	p := rp.parse(req, &er)
	if p == nil {
		return nil
	}
	return rp.estimate(req, p)
}

// batch replays one POST /estimate/batch: decode, parse and key every
// item, then estimate each distinct key once.
func (rp *replayer) batch(i int, body []byte) [][]byte {
	r := rp.rec
	req := r.open(i)
	defer r.close(req)
	t := r.now()
	var br serve.BatchRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&br)
	r.add(req, spanDecode, t)
	outs := make([][]byte, len(br.Items))
	if err != nil {
		return outs
	}
	first := make(map[string]int, len(br.Items))
	leader := make([]int, len(br.Items))
	ps := make([]*parsedItem, len(br.Items))
	for j := range br.Items {
		ps[j] = rp.parse(req, &br.Items[j])
		leader[j] = j
		if ps[j] == nil {
			continue
		}
		if f, ok := first[ps[j].key]; ok {
			leader[j] = f
		} else {
			first[ps[j].key] = j
		}
	}
	for j, p := range ps {
		if p != nil && leader[j] == j {
			outs[j] = rp.estimate(req, p)
		}
	}
	for j := range outs {
		outs[j] = outs[leader[j]]
	}
	return outs
}

// parsedItem is one request after parse, preflight and key derivation.
type parsedItem struct {
	m      *psdf.Model
	plat   *platform.Platform
	runner *core.Runner
	key    string
}

func (rp *replayer) parse(req int, er *serve.EstimateRequest) *parsedItem {
	r := rp.rec
	t := r.now()
	m, err := schema.ParsePSDF([]byte(er.PSDF))
	r.add(req, spanParsePSDF, t)
	if err != nil {
		return nil
	}
	t = r.now()
	plat, err := schema.ParsePSM([]byte(er.PSM))
	r.add(req, spanParsePSM, t)
	if err != nil {
		return nil
	}
	if er.PackageSize > 0 {
		plat.PackageSize = er.PackageSize
	}
	pol, err := policyOf(er.Policy)
	if err != nil {
		return nil
	}
	runner := core.NewRunner(core.Options{Policy: pol, DetectTicks: er.DetectTicks})
	t = r.now()
	pre := core.Preflight(m, plat)
	r.add(req, spanPreflight, t)
	if pre.HasErrors() {
		return nil
	}
	t = r.now()
	k, err := runner.Key(m, plat)
	r.add(req, spanKey, t)
	if err != nil {
		return nil
	}
	return &parsedItem{m: m, plat: plat, runner: runner, key: k}
}

func (rp *replayer) estimate(req int, p *parsedItem) []byte {
	r := rp.rec
	cache := rp.srv.Cache()
	t := r.now()
	out, hit := cache.Get(p.key)
	r.add(req, spanCacheGet, t)
	if hit {
		return out
	}
	t = r.now()
	shape := pool.ShapeKey(p.m, p.plat)
	mc, warm := rp.machines.Get(shape)
	r.add(req, spanPoolGet, t)
	rp.poolGets++
	if warm {
		rp.poolWarm++
	}
	t = r.now()
	est, err := p.runner.EstimateOn(mc, p.m, p.plat)
	r.add(req, spanEmulate, t)
	if err == nil {
		rp.steps = append(rp.steps, float64(est.Report.Steps))
		rp.stepSpan = append(rp.stepSpan, len(r.spans)-1)
		t = r.now()
		out, err = est.Report.JSON()
		r.add(req, spanReportJSON, t)
	}
	t = r.now()
	rp.machines.Put(shape, mc)
	r.add(req, spanPoolPut, t)
	if err != nil {
		return nil
	}
	t = r.now()
	cache.Put(p.key, out)
	r.add(req, spanCachePut, t)
	return out
}

// mallocs is the process's count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
