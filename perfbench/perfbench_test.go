package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"testing"
	"time"

	"segbus/internal/core"
	"segbus/internal/schema"
	"segbus/internal/serve"
)

// streamDigest hashes the bodies of the first n operations of a
// workload's request stream.
func streamDigest(t *testing.T, workload string, seed int64, n int) [sha256.Size]byte {
	t.Helper()
	b, err := newServeBench(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var keys []key
	for i := 0; i < n; i++ {
		path, ks, ok := b.op(i, keys)
		if !ok {
			t.Fatalf("%s stream exhausted at %d", workload, i)
		}
		keys = ks
		h.Write([]byte(path))
		h.Write(b.bodyOf(path, keys))
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range []string{"serve_warm", "serve_cold", "serve_batch"} {
		a := streamDigest(t, w, 3, 300)
		if b := streamDigest(t, w, 3, 300); a != b {
			t.Errorf("%s: two streams of seed 3 differ", w)
		}
		if c := streamDigest(t, w, 4, 300); a == c {
			t.Errorf("%s: seeds 3 and 4 give the same stream", w)
		}
	}
}

func TestBodiesMatchJSONMarshal(t *testing.T) {
	b, err := newServeBench("serve_batch", 1)
	if err != nil {
		t.Fatal(err)
	}
	items, _ := batchOp(1, 0, nil)
	br := serve.BatchRequest{}
	for _, k := range items {
		m := b.c.models[k.model]
		br.Items = append(br.Items, serve.EstimateRequest{PSDF: m.psdf, PSM: m.psm, PackageSize: k.size, Policy: k.policy})
	}
	want, err := json.Marshal(br)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.c.batchBody(nil, items); !bytes.Equal(got, want) {
		t.Errorf("batch body differs from json.Marshal:\n got %.300s\nwant %.300s", got, want)
	}
}

// canonicalKey derives a request's cache key as the server does.
func canonicalKey(t *testing.T, body []byte) string {
	t.Helper()
	var er serve.EstimateRequest
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	m, err := schema.ParsePSDF([]byte(er.PSDF))
	if err != nil {
		t.Fatal(err)
	}
	plat, err := schema.ParsePSM([]byte(er.PSM))
	if err != nil {
		t.Fatal(err)
	}
	if er.PackageSize > 0 {
		plat.PackageSize = er.PackageSize
	}
	pol, err := policyOf(er.Policy)
	if err != nil {
		t.Fatal(err)
	}
	k, err := core.Key(m, plat, core.Options{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestColdKeysDistinctAndOutnumberCache(t *testing.T) {
	b, err := newServeBench("serve_cold", 5)
	if err != nil {
		t.Fatal(err)
	}
	if space := coldCorpus*combos - coldWarmups; space <= cacheEntries {
		t.Fatalf("cold key space %d does not exceed the %d-entry cache", space, cacheEntries)
	}
	seen := make(map[string]int)
	n := coldWarmups + cacheEntries + 64
	for i := 0; i < n; i++ {
		k, _ := freshKey(0, coldCorpus, i)
		ck := canonicalKey(t, b.c.body(nil, k))
		if j, dup := seen[ck]; dup {
			t.Fatalf("cold keys %d and %d share canonical key %s", j, i, ck)
		}
		seen[ck] = i
	}
	if len(seen) <= cacheEntries {
		t.Fatalf("%d distinct keys do not outnumber the cache", len(seen))
	}
}

func TestBatchFreshKeysNeverRepeat(t *testing.T) {
	b, err := newServeBench("serve_batch", 6)
	if err != nil {
		t.Fatal(err)
	}
	warm := make(map[string]bool)
	for i := 0; i < batchWarmModels; i++ {
		warm[canonicalKey(t, b.c.body(nil, key{model: i}))] = true
	}
	fresh := make(map[string]bool)
	var items []key
	for i := 0; i < 100; i++ {
		items, _ = batchOp(6, i, items)
		n := 0
		for _, k := range items {
			ck := canonicalKey(t, b.c.body(nil, k))
			if k.size == 0 {
				if !warm[ck] {
					t.Fatalf("batch %d: a warm-set item is not in the warm set", i)
				}
				continue
			}
			n++
			if warm[ck] || fresh[ck] {
				t.Fatalf("batch %d: fresh key %+v was seen before", i, k)
			}
			fresh[ck] = true
		}
		if n != batchFresh {
			t.Fatalf("batch %d has %d fresh items, want %d", i, n, batchFresh)
		}
	}
}

func TestReplaySpansNest(t *testing.T) {
	for _, w := range []string{"serve_warm", "serve_cold", "serve_batch"} {
		b, err := newServeBench(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := newReplayer(b, wallClock)
		if err != nil {
			t.Fatal(err)
		}
		const n = 12
		for i := 0; i < n; i++ {
			if _, ok := rp.run(i); !ok {
				t.Fatalf("%s: stream exhausted", w)
			}
		}
		if rp.failed != 0 {
			t.Fatalf("%s: %d replayed outputs differ from their oracles: %v", w, rp.failed, b.failures)
		}
		byID := make(map[int]Span)
		requests := 0
		for _, s := range rp.rec.spans {
			byID[s.ID] = s
			if s.Parent == 0 {
				requests++
			}
		}
		if requests != n {
			t.Fatalf("%s: %d request spans, want %d", w, requests, n)
		}
		emulations := make(map[int]int)
		for _, s := range rp.rec.spans {
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || p.Parent != 0 || p.Req != s.Req {
				t.Fatalf("%s: span %+v is not under its request's span", w, s)
			}
			if s.Start < p.Start || s.End > p.End || s.End < s.Start {
				t.Fatalf("%s: span %+v lies outside its request %+v", w, s, p)
			}
			if w == "serve_warm" && s.Name != spanDecode && s.Name != spanRawProbe {
				t.Fatalf("serve_warm: request %d reached %s past the raw probe", s.Req, s.Name)
			}
			if s.Name == spanEmulate {
				emulations[s.Req]++
			}
		}
		if w == "serve_cold" {
			for i := 0; i < n; i++ {
				if emulations[i] != 1 {
					t.Fatalf("serve_cold: request %d has %d emulator spans, want 1", i, emulations[i])
				}
			}
		}
		for name, selfs := range selfTimes(rp.rec.spans) {
			for _, v := range selfs {
				if v < 0 {
					t.Fatalf("%s: negative self time %v for %s", w, v, name)
				}
			}
		}
	}
}

func TestOracleMismatchCountsAsFailure(t *testing.T) {
	b, err := newServeBench("serve_warm", 8)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := b.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	bad := warmOp(8, 0).model
	b.warm[bad] = []byte("not the report")
	lr := b.loop(tg, 100*time.Millisecond)
	if lr.failed == 0 || lr.items == 0 || lr.failed > lr.items {
		t.Fatalf("corrupted oracle of model %d: %d failed of %d", bad, lr.failed, lr.items)
	}

	// Replies checked after the timed phase are counted the same way.
	if got := b.checkPending([]pending{{k: key{model: 0, size: 9}}}); got != 1 {
		t.Fatalf("a reply hashing to zero counted %d failures, want 1", got)
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve_warm", "--seconds", "0"},
		{"--workload", "serve_warm", "--trace", "2"},
	} {
		if code, _ := run(args, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
