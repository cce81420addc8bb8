package pool

// Contract tests for the extracted machine pool: checkout accounting
// with raw counter handles, nil-safe metrics, default bounds, the
// shape-budget discard path, and Run's batch policy (byte identity
// with a fresh machine, panics turned into errors, panicked machines
// dropped). The serving-layer behavior (byte identity under
// concurrency, reconciliation against emulations) stays pinned by
// internal/serve's pool tests.

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/obs"
	"segbus/internal/platform"
)

func TestDefaults(t *testing.T) {
	p := New(Options{})
	if p.perKey != DefaultPerKey || p.maxShapes != DefaultMaxShapes {
		t.Errorf("zero Options gave bounds %d/%d, want defaults %d/%d",
			p.perKey, p.maxShapes, DefaultPerKey, DefaultMaxShapes)
	}
	// Nil counter handles must be safe: a full get/put cycle with no
	// metrics wired may not panic.
	mc, warm := p.Get("k")
	if warm {
		t.Fatal("empty pool reported a hit")
	}
	p.Put("k", mc)
	if _, warm := p.Get("k"); !warm {
		t.Fatal("pooled machine not returned")
	}
}

func TestShapeKeyStructural(t *testing.T) {
	m := apps.MP3Model()
	k3 := ShapeKey(m, apps.MP3Platform3(36))
	if k2 := ShapeKey(m, apps.MP3Platform2(36)); k2 == k3 {
		t.Errorf("different platform shapes share key %q", k3)
	}
	if k := ShapeKey(m, apps.MP3Platform3(48)); k != k3 {
		t.Error("package size changed the shape key; storage shape is size-independent")
	}
}

func TestCountersAndBounds(t *testing.T) {
	reg := obs.NewRegistry()
	hits := reg.Counter("pool_hits")
	misses := reg.Counter("pool_misses")
	discards := reg.Counter("pool_discards")
	p := New(Options{PerKey: 2, MaxShapes: 1, Hits: hits, Misses: misses, Discards: discards})

	// Fill shape "a" to its per-key cap, then overflow it by one.
	a1, _ := p.Get("a")
	a2, _ := p.Get("a")
	a3, _ := p.Get("a")
	p.Put("a", a1)
	p.Put("a", a2)
	p.Put("a", a3) // over PerKey → discard
	if got := discards.Value(); got != 1 {
		t.Errorf("discards after per-key overflow = %d, want 1", got)
	}

	// A second shape exceeds MaxShapes → discard, shape not binned.
	b1, _ := p.Get("b")
	p.Put("b", b1)
	if got := discards.Value(); got != 2 {
		t.Errorf("discards after shape-budget overflow = %d, want 2", got)
	}
	shapes, machines := p.Stats()
	if shapes != 1 || machines != 2 {
		t.Errorf("Stats() = (%d shapes, %d machines), want (1, 2)", shapes, machines)
	}
	if hits.Value() != 0 || misses.Value() != 4 {
		t.Errorf("hits=%d misses=%d after four cold checkouts", hits.Value(), misses.Value())
	}
	if _, warm := p.Get("a"); !warm {
		t.Fatal("warm checkout missed")
	}
	if hits.Value() != 1 {
		t.Errorf("hits=%d after one warm checkout", hits.Value())
	}
}

// TestConcurrentCheckout exercises the lock under contention; run
// under -race by the suite.
func TestConcurrentCheckout(t *testing.T) {
	p := New(Options{PerKey: 4, MaxShapes: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := []string{"x", "y"}[g%2]
			for i := 0; i < 50; i++ {
				mc, _ := p.Get(key)
				p.Put(key, mc)
			}
		}(g)
	}
	wg.Wait()
	shapes, _ := p.Stats()
	if shapes > 8 {
		t.Errorf("shape budget exceeded: %d", shapes)
	}
}

// TestRunPooledMatchesRun pins Run's pooled reports byte-identical to
// a fresh-machine emulator.Run over mixed shapes visited twice (so the
// second pass runs warm), including an invalid platform whose error
// text must come back unchanged.
func TestRunPooledMatchesRun(t *testing.T) {
	m := apps.MP3Model()
	var plats []*platform.Platform
	for _, size := range []int{36, 18, 12} {
		plats = append(plats, apps.MP3Platform3(size), apps.MP3Platform2(size))
	}
	bad := apps.MP3Platform3(36)
	bad.PackageSize = -5 // rejected by validation
	plats = append(plats, bad)

	p := New(Options{})
	for pass := 0; pass < 2; pass++ {
		for i, plat := range plats {
			want, wantErr := emulator.Run(m, plat, emulator.Config{})
			got, err := p.Run(m, plat, emulator.Config{})
			if (wantErr == nil) != (err == nil) {
				t.Fatalf("pass %d platform %d: err %v vs %v", pass, i, wantErr, err)
			}
			if wantErr != nil {
				if wantErr.Error() != err.Error() {
					t.Errorf("pass %d platform %d: error drifted: %v vs %v", pass, i, wantErr, err)
				}
				continue
			}
			wj, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			gj, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wj, gj) {
				t.Errorf("pass %d platform %d: pooled report differs from fresh", pass, i)
			}
		}
	}
	if _, err := p.Run(m, bad, emulator.Config{}); err == nil {
		t.Error("invalid platform reported success")
	}
}

// panicObserver panics on the first emulation event it sees.
type panicObserver struct{}

func (panicObserver) StageStarted(int, int64)               { panic("observer boom") }
func (panicObserver) TransferGranted(int, int64)            {}
func (panicObserver) PackageDelivered(int, int, int, int64) {}

// TestRunRecoversPanics checks a panicking run costs exactly its own
// result and machine: a nil platform and a run whose observer panics
// mid-emulation both come back as an error with a nil report, the
// panicked machine is dropped instead of returned, and the next valid
// Run on the same pool succeeds.
func TestRunRecoversPanics(t *testing.T) {
	m := apps.MP3Model()
	plat := apps.MP3Platform3(36)
	p := New(Options{})

	if rep, err := p.Run(m, nil, emulator.Config{}); err == nil || rep != nil {
		t.Fatalf("nil platform: report %v, err %v; want nil report and an error", rep, err)
	}
	if shapes, machines := p.Stats(); shapes != 0 || machines != 0 {
		t.Fatalf("after nil-platform panic Stats() = (%d, %d), want (0, 0)", shapes, machines)
	}

	// Warm the shape's bin with one machine, then panic a run that
	// checks that machine out: it must not come back.
	if _, err := p.Run(m, plat, emulator.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, machines := p.Stats(); machines != 1 {
		t.Fatalf("after a clean run Stats() machines = %d, want 1", machines)
	}
	rep, err := p.Run(m, plat, emulator.Config{Observer: panicObserver{}})
	if err == nil || rep != nil {
		t.Fatalf("panicking observer: report %v, err %v; want nil report and an error", rep, err)
	}
	if _, machines := p.Stats(); machines != 0 {
		t.Fatalf("panicked machine returned to the pool: Stats() machines = %d, want 0", machines)
	}

	rep, err = p.Run(m, plat, emulator.Config{})
	if err != nil || rep == nil {
		t.Fatalf("run after a panic: report %v, err %v", rep, err)
	}
	if _, machines := p.Stats(); machines != 1 {
		t.Errorf("after recovery Stats() machines = %d, want 1", machines)
	}
}
