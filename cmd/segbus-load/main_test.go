package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadRunJSON drives a small but complete in-process run — warm
// and cold traffic, batches, differential checking and the coalescing
// proof — and checks the machine-readable report adds up.
func TestLoadRunJSON(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "1", "-models", "6", "-requests", "60", "-concurrency", "4",
		"-hit-ratio", "0.5", "-batch", "3",
		"-corpus", filepath.Join("..", "..", "testdata", "scenarios"),
		"-diff", "-prove-coalescing", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Schema != ReportSchema {
		t.Errorf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	if rep.Requests != 60 {
		t.Errorf("requests %d, want 60", rep.Requests)
	}
	if rep.Items != 180 {
		t.Errorf("items %d, want 180 (60 batches of 3)", rep.Items)
	}
	if rep.Status["200"] != 180 {
		t.Errorf("status tally %v, want 180 × 200", rep.Status)
	}
	if rep.Checked != 180 || rep.Mismatches != 0 {
		t.Errorf("differential checked=%d mismatches=%d, want 180/0", rep.Checked, rep.Mismatches)
	}
	// Every served item is exactly one of hit/miss/coalesced.
	if got := rep.CacheHits + rep.CacheMisses + rep.Coalesced; got != 180 {
		t.Errorf("markers sum to %d, want 180", got)
	}
	// The corpus has 6 models (plus warmup): a warm run must reuse.
	if rep.Emulations < 0 || rep.Emulations > 6 {
		t.Errorf("emulations %d, want 0..6 for a 6-model corpus", rep.Emulations)
	}
	if !rep.ProofRan || !rep.Proven {
		t.Errorf("coalescing proof ran=%v proven=%v", rep.ProofRan, rep.Proven)
	}
	if rep.Latency.MaxUs <= 0 || rep.Latency.P50Us > rep.Latency.MaxUs {
		t.Errorf("latency digest inconsistent: %+v", rep.Latency)
	}
	if rep.ElapsedMs <= 0 || rep.ItemsPerSec <= 0 {
		t.Errorf("throughput fields not populated: %+v", rep)
	}
	// In-process runs expose the cache's per-shard tallies. They are
	// the server-side view — warmup and the coalescing proof probe the
	// cache too, and the raw-bytes fast path answers repeat singles
	// without touching the shards at all — so the only portable
	// invariants are presence, sanity, and that the cold corpus forced
	// at least one canonical-pipeline miss and fill.
	if len(rep.CacheShards) == 0 {
		t.Fatal("in-process report has no cache_shards")
	}
	var entries int
	var shardMisses int64
	for _, st := range rep.CacheShards {
		if st.Entries < 0 || st.Hits < 0 || st.Misses < 0 || st.Evictions < 0 {
			t.Errorf("negative shard tally: %+v", st)
		}
		entries += st.Entries
		shardMisses += st.Misses
	}
	if shardMisses == 0 {
		t.Error("no shard recorded a miss on a cold corpus")
	}
	if entries == 0 {
		t.Error("no shard holds an entry after the run")
	}
}

// TestLoadRunTextSingles covers the single-request path (-batch 1)
// and the text renderer.
func TestLoadRunTextSingles(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "2", "-models", "4", "-requests", "30", "-concurrency", "3",
		"-hit-ratio", "1.0", "-batch", "1", "-diff",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	text := out.String()
	for _, want := range []string{"segbus-load: 30 requests (30 items)", "throughput:", "cache:", "shards:", "latency:", "differential: 30/30"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

// TestLoadRunSlowest covers -slowest: every request is traced via a
// forced traceparent, and the report ends with server-side stage
// breakdowns read back from /debug/requests. Each entry's stage shape
// is checked against its own raw-index outcome, never against its
// latency rank: on a loaded box a raw hit can stall long enough to be
// the slowest request of a run.
func TestLoadRunSlowest(t *testing.T) {
	slowest := func(args ...string) []SlowRequest {
		t.Helper()
		var out bytes.Buffer
		if err := run(append(args, "-batch", "1", "-json"), &out); err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
		var rep Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
		}
		return rep.Slowest
	}
	// checkEntries asserts the per-entry invariants and returns the
	// number of raw-index misses among the entries.
	checkEntries := func(entries []SlowRequest) (misses int) {
		t.Helper()
		prev := entries[0].DurUs
		for i, s := range entries {
			if len(s.TraceID) != 32 || s.Endpoint != "/estimate" || s.Status != 200 {
				t.Errorf("slowest[%d] = %+v", i, s)
			}
			if s.DurUs > prev {
				t.Errorf("slowest not worst-first: %d after %d", s.DurUs, prev)
			}
			prev = s.DurUs
			if len(s.Stages) == 0 {
				t.Errorf("slowest[%d] has no stage breakdown", i)
			}
			var sum int64
			stages := make(map[string]SlowStage)
			for _, st := range s.Stages {
				sum += st.DurUs
				stages[st.Name] = st
			}
			if sum > s.DurUs+1 { // +1 absorbs per-stage ns→µs truncation
				t.Errorf("slowest[%d] stages sum to %dµs > total %dµs", i, sum, s.DurUs)
			}
			// A raw-index miss runs the full pipeline (parse +
			// cache_probe); a raw hit stops at the byte-level probe.
			_, parse := stages["parse"]
			_, probe := stages["cache_probe"]
			switch raw := stages["raw_probe"].Result; raw {
			case "miss":
				misses++
				if !parse || !probe {
					t.Errorf("slowest[%d] is a raw miss without parse/cache_probe: %+v", i, s.Stages)
				}
			case "hit":
				if parse || probe {
					t.Errorf("slowest[%d] is a raw hit past the raw probe: %+v", i, s.Stages)
				}
			default:
				t.Errorf("slowest[%d] raw_probe result %q, want hit or miss: %+v", i, raw, s.Stages)
			}
		}
		return misses
	}

	entries := slowest("-seed", "3", "-models", "4", "-requests", "24", "-concurrency", "3",
		"-hit-ratio", "0.5", "-slowest", "3")
	if len(entries) == 0 || len(entries) > 3 {
		t.Fatalf("%d slowest entries, want 1..3", len(entries))
	}
	checkEntries(entries)

	// The full-pipeline shape, proven without relying on rank: with
	// -slowest as large as the run, every request's trace is kept, and
	// a single client's seeded traffic asks for models the warm-up
	// never served, so at least one entry is a raw-index miss.
	entries = slowest("-seed", "3", "-models", "4", "-requests", "6", "-concurrency", "1",
		"-hit-ratio", "0", "-slowest", "6")
	if len(entries) != 6 {
		t.Fatalf("%d slowest entries, want all 6 requests", len(entries))
	}
	if checkEntries(entries) == 0 {
		t.Errorf("no raw-index miss among every request of a cold run: %+v", entries)
	}

	var out bytes.Buffer
	// The text renderer includes the breakdown section.
	err := run([]string{
		"-seed", "3", "-models", "4", "-requests", "12", "-concurrency", "2",
		"-slowest", "2",
	}, &out)
	if err != nil {
		t.Fatalf("text run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "slowest 2 (server-side breakdown):") {
		t.Errorf("text report missing slowest section:\n%s", out.String())
	}
}

// TestLoadRunFlagValidation pins the argument gates.
func TestLoadRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-models", "0"},
		{"-concurrency", "0"},
		{"-batch", "0"},
		{"-hit-ratio", "1.5"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v did not error", args)
		}
	}
}

// TestLoadRunMarkerLatency checks the per-marker latency split of
// single-request traffic: a pure-hit run reports a hit digest with
// enough samples, and the digest is internally consistent.
func TestLoadRunMarkerLatency(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-seed", "4", "-models", "6", "-requests", "60", "-concurrency", "1",
		"-hit-ratio", "1.0", "-batch", "1", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, out.String())
	}
	hl, ok := rep.MarkerLatency["hit"]
	if !ok {
		t.Fatalf("no hit latency digest in report: %+v", rep.MarkerLatency)
	}
	if hl.Samples < 20 {
		t.Errorf("hit samples %d, want >= 20 from a pure-hit run of 60", hl.Samples)
	}
	if hl.P50Us < 1 || hl.P50Us > hl.MaxUs {
		t.Errorf("hit latency digest inconsistent: %+v", hl)
	}
}
