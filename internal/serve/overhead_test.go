//go:build !race

package serve

import (
	"net/http"
	"testing"
	"time"
)

// TestTracingOverheadSmoke is the overhead gate of the acceptance
// list, run as an in-process A/B so it measures this machine against
// itself instead of against numbers committed from another one: the
// unsampled hot path (tracing enabled, head sampling off — the
// production default) must serve cache hits within 5% of a server
// with tracing compiled out of the request path entirely, plus a
// small absolute floor for scheduler noise. Min-of-N isolates the
// fixed cost from interference; the race detector's instrumentation
// would drown the 5% signal, so the test only builds without -race.
func TestTracingOverheadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing smoke skipped in -short mode")
	}
	psdfXML, psmXML := goldenSchemes(t)
	b := body(t, EstimateRequest{PSDF: psdfXML, PSM: psmXML})

	// Arm 0 has tracing disabled, arm 1 traces with head sampling
	// off. The arms alternate request by request, and the one that
	// goes first swaps every round, so a load spike or a frequency
	// change lands on both; each arm keeps its best.
	var arms [2]http.Handler
	for i, sample := range []int{-1, 0} {
		arms[i] = New(Config{Workers: 2, Queue: 4, CacheEntries: 8, TraceSample: sample}).Handler()
		if rec := post(arms[i], b); rec.Code != http.StatusOK {
			t.Fatalf("warmup status %d: %s", rec.Code, rec.Body.String())
		}
	}
	best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
	for round := 0; round < 800; round++ {
		for k := 0; k < 2; k++ {
			arm := (round + k) % 2
			start := time.Now()
			if rec := post(arms[arm], b); rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			if d := time.Since(start); d < best[arm] {
				best[arm] = d
			}
		}
	}
	off, on := best[0], best[1]
	limit := off + off/20 + 25*time.Microsecond
	if on > limit {
		t.Errorf("unsampled traced path min %v exceeds disabled-tracing min %v + 5%% + 25µs (%v)", on, off, limit)
	}
	t.Logf("cache-hit min: tracing disabled %v, unsampled %v", off, on)
}
