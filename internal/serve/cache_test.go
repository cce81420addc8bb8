package serve

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/core"
	"segbus/internal/obs"
)

func TestCacheBasics(t *testing.T) {
	c := NewShardedCache(2, 1, nil)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if v, ok := c.Get("a"); !ok || string(v) != "A" {
		t.Fatalf("Get a = %q %v", v, ok)
	}
	// "a" was just used, so inserting "c" evicts "b".
	if evicted := c.Put("c", []byte("C")); !evicted {
		t.Fatal("full cache did not evict")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU evicted the wrong entry")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	// Re-putting refreshes, never grows or evicts.
	if evicted := c.Put("a", []byte("A2")); evicted {
		t.Fatal("refresh evicted")
	}
	if v, _ := c.Get("a"); string(v) != "A2" {
		t.Fatalf("refresh lost: %q", v)
	}
}

func TestCacheDisabled(t *testing.T) {
	for _, c := range []*Cache{NewShardedCache(0, 1, nil), nil} {
		c.Put("a", []byte("A"))
		if _, ok := c.Get("a"); ok {
			t.Fatal("disabled cache hit")
		}
		if c.Len() != 0 {
			t.Fatal("disabled cache has entries")
		}
	}
}

// TestCacheConcurrent hammers parallel Get/Put with eviction under
// the race detector: the run is only meaningful with -race, which the
// tier-1 loop applies.
func TestCacheConcurrent(t *testing.T) {
	c := NewShardedCache(8, 1, nil) // much smaller than the key space: constant eviction
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%32)
				if v, ok := c.Get(key); ok && string(v) != "v-"+key {
					t.Errorf("cache returned foreign value %q for %s", v, key)
				}
				c.Put(key, []byte("v-"+key))
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 8 {
		t.Fatalf("cache grew past its bound: %d", n)
	}
}

// TestCacheHitIsByteIdenticalToColdRun is the serving determinism
// guarantee: a hit returns exactly the bytes a fresh emulation would
// produce.
func TestCacheHitIsByteIdenticalToColdRun(t *testing.T) {
	r := core.NewRunner(core.Options{})
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	key, err := r.Key(m, p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := r.ReportJSON(m, p)
	if err != nil {
		t.Fatal(err)
	}
	c := NewShardedCache(4, 1, nil)
	c.Put(key, cold)
	hit, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after put")
	}
	again, err := r.ReportJSON(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hit, again) {
		t.Error("cache hit differs from a fresh cold run")
	}
}

// BenchmarkColdEstimate measures the full serving cost of a cache
// miss: canonical key derivation plus emulation plus report
// rendering. Compare with BenchmarkCacheHit (EXPERIMENTS.md records
// the ratio).
func BenchmarkColdEstimate(b *testing.B) {
	r := core.NewRunner(core.Options{})
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Key(m, p); err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReportJSON(m, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit measures the same request served from the result
// cache: key derivation plus one LRU lookup.
func BenchmarkCacheHit(b *testing.B) {
	r := core.NewRunner(core.Options{})
	m := apps.MP3Model()
	p := apps.MP3Platform3(36)
	key, err := r.Key(m, p)
	if err != nil {
		b.Fatal(err)
	}
	body, err := r.ReportJSON(m, p)
	if err != nil {
		b.Fatal(err)
	}
	c := NewShardedCache(4, 1, nil)
	c.Put(key, body)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := r.Key(m, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := c.Get(k); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// TestCacheShardRouting pins the routing properties: deterministic
// and stable across instances, in range, hex-prefix based for
// fingerprint-shaped keys, and uniform enough that real fingerprints
// populate every shard.
func TestCacheShardRouting(t *testing.T) {
	a := NewShardedCache(64, 8, nil)
	b := NewShardedCache(64, 8, nil)
	if a.Shards() != 8 || b.Shards() != 8 {
		t.Fatalf("shard counts %d/%d, want 8", a.Shards(), b.Shards())
	}
	keys := []string{
		"", "x", "zz", "deadbeef", "00ff", "ff00", "0a1b2c3d",
		"not-hex-at-all", "A1", "a1", "5", "(unprintable)\x00\x01",
	}
	for _, key := range keys {
		sa, sb := a.shardFor(key), b.shardFor(key)
		if sa != sb {
			t.Errorf("key %q routes to shard %d on one instance, %d on another", key, sa, sb)
		}
		if int(sa) >= a.Shards() {
			t.Errorf("key %q routed out of range: %d", key, sa)
		}
	}
	// Hex-prefixed keys route by their first byte, which is exactly
	// how core.Key fingerprints spread.
	if got := a.shardFor("00aaaa"); got != 0 {
		t.Errorf("hex key 00… routed to shard %d, want 0", got)
	}
	if got := a.shardFor("ffbbbb"); got != 0xff&a.mask {
		t.Errorf("hex key ff… routed to shard %d, want %d", got, 0xff&a.mask)
	}
	// Upper/lower hex prefixes agree.
	if a.shardFor("A1zz") != a.shardFor("a1zz") {
		t.Error("hex routing is case-sensitive")
	}
	// Synthetic fingerprints cover every shard.
	seen := make(map[uint32]bool)
	for i := 0; i < 256; i++ {
		seen[a.shardFor(fmt.Sprintf("%02x-rest-of-key", i))] = true
	}
	if len(seen) != a.Shards() {
		t.Errorf("256 distinct prefixes touched %d/%d shards", len(seen), a.Shards())
	}
}

// TestCacheShardSizing pins the constructor contract: power-of-two
// rounding, the 256-shard cap, defaulting, and capacity distribution
// with a per-shard minimum of one.
func TestCacheShardSizing(t *testing.T) {
	cases := []struct {
		max, shards, wantShards int
	}{
		{64, 0, 8},      // default
		{64, 1, 1},      // unsharded: exact global LRU
		{64, 3, 4},      // round up to power of two
		{64, 8, 8},      //
		{64, 9, 16},     //
		{64, 1000, 256}, // cap
		{2, 8, 8},       // fewer entries than shards: minimum 1 each
	}
	for _, tc := range cases {
		c := NewShardedCache(tc.max, tc.shards, nil)
		if c.Shards() != tc.wantShards {
			t.Errorf("NewShardedCache(%d, %d): %d shards, want %d", tc.max, tc.shards, c.Shards(), tc.wantShards)
			continue
		}
		total, min := 0, 1<<30
		for _, s := range c.shards {
			total += s.max
			if s.max < min {
				min = s.max
			}
		}
		if min < 1 {
			t.Errorf("NewShardedCache(%d, %d): shard with capacity %d", tc.max, tc.shards, min)
		}
		if tc.max >= tc.wantShards && total != tc.max {
			t.Errorf("NewShardedCache(%d, %d): capacities sum to %d, want %d", tc.max, tc.shards, total, tc.max)
		}
	}
}

// lruModel is a deliberately naive per-shard LRU used as the oracle:
// a slice ordered most-recent-first, linear scans, no locking.
type lruModel struct {
	max  int
	keys []string
	vals map[string]string
}

func (m *lruModel) get(key string) (string, bool) {
	for i, k := range m.keys {
		if k == key {
			m.keys = append(m.keys[:i], m.keys[i+1:]...)
			m.keys = append([]string{key}, m.keys...)
			return m.vals[key], true
		}
	}
	return "", false
}

func (m *lruModel) put(key, val string) (evicted bool) {
	if _, ok := m.vals[key]; ok {
		m.vals[key] = val
		m.get(key) // refresh recency
		return false
	}
	m.keys = append([]string{key}, m.keys...)
	m.vals[key] = val
	if len(m.keys) <= m.max {
		return false
	}
	last := m.keys[len(m.keys)-1]
	m.keys = m.keys[:len(m.keys)-1]
	delete(m.vals, last)
	return true
}

// TestCacheShardedMatchesReference is the randomized property test:
// thousands of seeded Get/Put operations against the sharded cache
// must agree, step by step, with an independent per-shard reference
// LRU — same hits, same values, same eviction decisions — and every
// counter axis must reconcile at the end: hits+misses == Gets,
// aggregate ShardStats == reference tallies == obs-mirrored counters.
func TestCacheShardedMatchesReference(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			reg := obs.NewRegistry()
			c := NewShardedCache(24, shards, reg)
			ref := make([]*lruModel, c.Shards())
			for i := range ref {
				ref[i] = &lruModel{max: c.shards[i].max, vals: make(map[string]string)}
			}

			// Hex-prefixed keys exercise the prefix router; a sprinkle
			// of non-hex keys exercises the FNV fallback.
			rng := rand.New(rand.NewSource(7))
			keyFor := func() string {
				if rng.Intn(10) == 0 {
					return fmt.Sprintf("zkey-%d", rng.Intn(40))
				}
				return fmt.Sprintf("%02x%06x", rng.Intn(256), rng.Intn(1<<24)%40)
			}
			var gets, hits, misses, evictions int64
			for op := 0; op < 6000; op++ {
				key := keyFor()
				m := ref[c.shardFor(key)]
				if rng.Intn(2) == 0 {
					gets++
					got, ok := c.Get(key)
					wantVal, want := m.get(key)
					if ok != want {
						t.Fatalf("op %d: Get(%q) = %v, reference says %v", op, key, ok, want)
					}
					if ok {
						hits++
						if string(got) != wantVal {
							t.Fatalf("op %d: Get(%q) = %q, reference %q", op, key, got, wantVal)
						}
					} else {
						misses++
					}
				} else {
					val := fmt.Sprintf("v%d", op)
					ev := c.Put(key, []byte(val))
					if want := m.put(key, val); ev != want {
						t.Fatalf("op %d: Put(%q) evicted=%v, reference says %v", op, key, ev, want)
					}
					if ev {
						evictions++
					}
				}
			}
			if hits == 0 || misses == 0 || evictions == 0 {
				t.Fatalf("degenerate run: %d hits, %d misses, %d evictions", hits, misses, evictions)
			}

			// Final state: every shard holds exactly the reference keys.
			refLen := 0
			for i, m := range ref {
				refLen += len(m.keys)
				if got := c.shards[i].ll.Len(); got != len(m.keys) {
					t.Errorf("shard %d holds %d entries, reference %d", i, got, len(m.keys))
				}
			}
			if c.Len() != refLen {
				t.Errorf("Len() = %d, reference %d", c.Len(), refLen)
			}

			// Counter reconciliation across all three axes.
			var sHits, sMisses, sEvictions int64
			snap := reg.Snapshot(false)
			for _, st := range c.ShardStats() {
				sHits += st.Hits
				sMisses += st.Misses
				sEvictions += st.Evictions
				label := fmt.Sprintf(`{shard="%d"}`, st.Shard)
				if got := snap[obs.MetricServedCacheShardHits+label]; got != float64(st.Hits) {
					t.Errorf("shard %d: obs hits %v, local %d", st.Shard, got, st.Hits)
				}
				if got := snap[obs.MetricServedCacheShardMisses+label]; got != float64(st.Misses) {
					t.Errorf("shard %d: obs misses %v, local %d", st.Shard, got, st.Misses)
				}
				if got := snap[obs.MetricServedCacheShardEvictions+label]; got != float64(st.Evictions) {
					t.Errorf("shard %d: obs evictions %v, local %d", st.Shard, got, st.Evictions)
				}
			}
			if sHits != hits || sMisses != misses || sEvictions != evictions {
				t.Errorf("aggregate shard tallies (%d/%d/%d) != observed (%d/%d/%d)",
					sHits, sMisses, sEvictions, hits, misses, evictions)
			}
			if sHits+sMisses != gets {
				t.Errorf("hits(%d)+misses(%d) != total Gets(%d)", sHits, sMisses, gets)
			}
		})
	}
}
