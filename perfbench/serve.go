package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"segbus/internal/obs"
	"segbus/internal/serve"
)

// target is one in-process segbus-served stack on a real loopback
// listener, configured exactly as segbus-served's defaults, plus the
// client the closed loop talks through.
type target struct {
	srv        *serve.Server
	hs         *http.Server
	tr         *http.Transport
	client     *http.Client
	base       string
	emulations atomic.Int64
	served     chan struct{}
}

func newTarget() (*target, error) {
	t := &target{served: make(chan struct{})}
	t.srv = serve.New(serve.Config{
		Workers:        0,
		Queue:          -1,
		CacheEntries:   cacheEntries,
		CacheShards:    0,
		RequestTimeout: 30 * time.Second,
		Registry:       obs.NewRegistry(),
		TraceSeed:      1,
		OnEmulate:      func() { t.emulations.Add(1) },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.hs = &http.Server{Handler: t.srv.Handler()}
	go func() {
		defer close(t.served)
		t.hs.Serve(ln)
	}()
	t.base = "http://" + ln.Addr().String()
	t.tr = &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	t.client = &http.Client{Transport: t.tr, Timeout: 30 * time.Second}
	return t, nil
}

// close stops the server and waits for its accept loop to end.
func (t *target) close() {
	t.tr.CloseIdleConnections()
	t.hs.Close()
	<-t.served
}

// post sends one request and reads the whole response.
func (t *target) post(path string, body []byte) (status int, marker string, payload []byte, err error) {
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	payload, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("X-Segbus-Cache"), payload, err
}

// serveBench is one serve workload: its corpus, oracles and counters.
type serveBench struct {
	workload string
	seed     int64
	c        *corpus
	warm     [][]byte // oracle of the plain request of models[i], i < len(warm)

	mu       sync.Mutex
	failures []string // first few failure descriptions
}

func newServeBench(workload string, seed int64) (*serveBench, error) {
	n := map[string]int{"serve_warm": warmCorpus, "serve_cold": coldCorpus, "serve_batch": batchCorpus}[workload]
	if n == 0 {
		return nil, fmt.Errorf("unknown serve workload %q", workload)
	}
	c, err := newCorpus(seed, n)
	if err != nil {
		return nil, err
	}
	b := &serveBench{workload: workload, seed: seed, c: c}
	warm := map[string]int{"serve_warm": hotModels, "serve_batch": batchWarmModels}[workload]
	b.warm = make([][]byte, warm)
	for i := range b.warm {
		if b.warm[i], err = c.oracle(key{model: i}); err != nil {
			return nil, fmt.Errorf("oracle of model %d: %w", i, err)
		}
	}
	return b, nil
}

func (b *serveBench) fail(format string, args ...any) {
	b.mu.Lock()
	if len(b.failures) < 8 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.mu.Unlock()
}

// warmup is one set-up request.
type warmup struct {
	path string
	keys []key
}

// warmups lists the workload's set-up requests: the hot set
// (serve_warm), the pre-warmed batch set in warmBatch-item batches
// (serve_batch) or coldWarmups keys no timed request uses (serve_cold).
func (b *serveBench) warmups() []warmup {
	var out []warmup
	switch b.workload {
	case "serve_warm":
		for i := 0; i < hotModels; i++ {
			out = append(out, warmup{"/estimate", []key{{model: i}}})
		}
	case "serve_cold":
		for i := 0; i < coldWarmups; i++ {
			k, _ := freshKey(0, coldCorpus, i)
			out = append(out, warmup{"/estimate", []key{k}})
		}
	case "serve_batch":
		for i := 0; i < batchWarmModels; i += warmBatch {
			keys := make([]key, warmBatch)
			for j := range keys {
				keys[j] = key{model: i + j}
			}
			out = append(out, warmup{"/estimate/batch", keys})
		}
	}
	return out
}

// op returns operation i of the workload's stream, reusing dst for its
// keys; false means the stream is exhausted.
func (b *serveBench) op(i int, dst []key) (path string, keys []key, ok bool) {
	switch b.workload {
	case "serve_warm":
		return "/estimate", append(dst[:0], warmOp(b.seed, i)), true
	case "serve_cold":
		k, ok := coldOp(i)
		return "/estimate", append(dst[:0], k), ok
	}
	keys, ok = batchOp(b.seed, i, dst)
	return "/estimate/batch", keys, ok
}

// bodyOf renders the request body of keys sent to path. A plain
// request's body is the corpus's shared, read-only copy.
func (b *serveBench) bodyOf(path string, keys []key) []byte {
	if path == "/estimate/batch" {
		return b.c.batchBody(nil, keys)
	}
	if k := keys[0]; k.size == 0 && k.policy == "" {
		return b.c.models[k.model].single
	}
	return b.c.body(nil, keys[0])
}

// setup brings up a fresh target and sends the workload's warm-up
// requests, checking every reply against its oracle.
func (b *serveBench) setup() (*target, error) {
	t, err := newTarget()
	if err != nil {
		return nil, err
	}
	rec := &clientRec{}
	for n, w := range b.warmups() {
		status, marker, payload, err := t.post(w.path, b.bodyOf(w.path, w.keys))
		b.check(-1-n, w.path, w.keys, status, marker, payload, err, rec)
	}
	if rec.failed += b.checkPending(rec.pending); rec.failed > 0 {
		t.close()
		return nil, fmt.Errorf("%d warm-up items failed: %v", rec.failed, b.failures)
	}
	return t, nil
}

// pending is a reply checked after the timed phase: its key and the
// SHA-256 of the bytes served for it.
type pending struct {
	k   key
	sum [sha256.Size]byte
}

// clientRec is one closed-loop client's record of the timed phase.
type clientRec struct {
	lat       []int64 // round trip per request, ns
	items     int64   // estimate items attempted (a batch counts each)
	failed    int64
	misses    int64 // items served with cache marker "miss"
	dedup     int64 // BatchResponse.Deduplicated, summed
	pending   []pending
	exhausted bool
}

// loopResult is the merged outcome of one closed-loop phase.
type loopResult struct {
	ops       int // operations claimed from the stream
	elapsed   time.Duration
	lat       []int64
	items     int64
	failed    int64
	misses    int64
	dedup     int64
	exhausted bool
}

// loop runs the closed loop: clients goroutines, each sending its next
// request only after the previous reply, claiming operations from the
// shared deterministic stream until the deadline. Replies whose oracle
// is not at hand are checked afterwards, outside the timed phase.
func (b *serveBench) loop(t *target, d time.Duration) loopResult {
	var next atomic.Int64
	recs := make([]*clientRec, clients)
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = &clientRec{}
		wg.Add(1)
		go func(rec *clientRec) {
			defer wg.Done()
			keys := make([]key, 0, batchItems)
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				path, ks, ok := b.op(i, keys)
				if !ok {
					rec.exhausted = true
					return
				}
				body := b.bodyOf(path, ks)
				t0 := time.Now()
				status, marker, payload, err := t.post(path, body)
				rec.lat = append(rec.lat, time.Since(t0).Nanoseconds())
				b.check(i, path, ks, status, marker, payload, err, rec)
			}
		}(recs[w])
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start), ops: int(next.Load())}
	var pend []pending
	for _, r := range recs {
		res.lat = append(res.lat, r.lat...)
		res.items += r.items
		res.failed += r.failed
		res.misses += r.misses
		res.dedup += r.dedup
		res.exhausted = res.exhausted || r.exhausted
		pend = append(pend, r.pending...)
	}
	res.failed += b.checkPending(pend)
	return res
}

// check verifies the reply to operation i (negative: set-up request
// -i-1): plain keys against their oracles at once, fresh keys by hash
// into rec.pending for checkPending. It counts items, failures and
// cache misses into rec.
func (b *serveBench) check(i int, path string, keys []key, status int, marker string, payload []byte, err error, rec *clientRec) {
	rec.items += int64(len(keys))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, payload)
	}
	if path == "/estimate" {
		if err != nil {
			rec.failed++
			b.fail("op %d: %v", i, err)
			return
		}
		if marker == "miss" {
			rec.misses++
		}
		b.checkItem(i, 0, keys[0], payload, rec)
		return
	}
	var br serve.BatchResponse
	if err == nil {
		err = json.Unmarshal(payload, &br)
	}
	if err == nil && len(br.Items) != len(keys) {
		err = fmt.Errorf("%d items for %d sent", len(br.Items), len(keys))
	}
	if err != nil {
		rec.failed += int64(len(keys))
		b.fail("op %d: %v", i, err)
		return
	}
	rec.dedup += int64(br.Deduplicated)
	for j, it := range br.Items {
		if it.Cache == "miss" {
			rec.misses++
		}
		if it.Status != http.StatusOK {
			rec.failed++
			b.fail("op %d item %d: status %d %s %s", i, j, it.Status, it.Code, it.Error)
			continue
		}
		b.checkItem(i, j, keys[j], it.Report, rec)
	}
}

func (b *serveBench) checkItem(i, j int, k key, got []byte, rec *clientRec) {
	if k.size == 0 && k.policy == "" {
		if !bytes.Equal(got, b.warm[k.model]) {
			rec.failed++
			b.fail("op %d item %d: reply differs from the oracle of model %d", i, j, k.model)
		}
		return
	}
	rec.pending = append(rec.pending, pending{k: k, sum: sha256.Sum256(got)})
}

// checkPending computes the oracle of every deferred reply, on one
// goroutine per client, and returns how many differ.
func (b *serveBench) checkPending(pend []pending) int64 {
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pend); i += clients {
				p := pend[i]
				want, err := b.c.oracle(p.k)
				if err != nil {
					bad.Add(1)
					b.fail("oracle of %+v: %v", p.k, err)
					continue
				}
				if sha256.Sum256(want) != p.sum {
					bad.Add(1)
					b.fail("reply for %+v differs from the oracle", p.k)
				}
			}
		}(w)
	}
	wg.Wait()
	return bad.Load()
}

// properties describes the input the timed phase actually sent: the
// set-up requests, then ops operations of the workload's stream.
func (b *serveBench) properties(ops int) map[string]any {
	seen := make(map[key]bool)
	for _, w := range b.warmups() {
		for _, k := range w.keys {
			seen[k] = true
		}
	}
	setupKeys := len(seen)
	var items, repeats, inBatchDups, schemeBytes int64
	var keys []key
	for i := 0; i < ops; i++ {
		var ok bool
		if _, keys, ok = b.op(i, keys); !ok {
			continue
		}
		inOp := make(map[key]bool, len(keys))
		for _, k := range keys {
			items++
			schemeBytes += int64(b.c.schemeBytes(k))
			if seen[k] {
				repeats++
			}
			if inOp[k] {
				inBatchDups++
			}
			seen[k], inOp[k] = true, true
		}
	}
	p := map[string]any{
		"requests":             ops,
		"items":                items,
		"setup_keys":           setupKeys,
		"distinct_keys":        len(seen),
		"repeat_share":         ratio(float64(repeats), float64(items)),
		"in_batch_dup_share":   ratio(float64(inBatchDups), float64(items)),
		"mean_scheme_bytes":    ratio(float64(schemeBytes), float64(items)),
		"working_set_vs_cache": ratio(float64(len(seen)), cacheEntries),
		"corpus_models":        len(b.c.models),
	}
	if b.workload == "serve_cold" {
		p["key_space"] = coldCorpus*combos - coldWarmups
	}
	if b.workload == "serve_batch" {
		p["fresh_key_space"] = (batchCorpus - batchWarmModels) * combos
	}
	return p
}

// healthzRTT measures n sequential GET /healthz round trips through the
// target's client and returns their durations in ns.
func (t *target) healthzRTT(n int) ([]int64, error) {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		resp, err := t.client.Get(t.base + "/healthz")
		if err != nil {
			return nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out = append(out, time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, errors.New("healthz: status " + resp.Status)
		}
	}
	return out, nil
}
