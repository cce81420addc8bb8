package parallel

// Work-stealing scheduler contract: every index runs exactly once for
// any worker count, results merged by index are identical across
// worker counts, stealing actually happens under a skewed cost
// distribution, and Run's pooled results are byte-equivalent to a
// sequential emulator.Run of each job.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"segbus/internal/apps"
	"segbus/internal/emulator"
	"segbus/internal/platform"
)

func TestStealRunExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		for _, n := range []int{0, 1, 7, 64, 1000} {
			counts := make([]atomic.Int32, n)
			StealRun(n, StealOptions{Workers: workers, Seed: 42}, func(i int) {
				counts[i].Add(1)
			})
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestStealRunMergedOutputStable pins the determinism contract: tasks
// writing pure functions of their index produce identical merged
// output for every (workers, seed) combination.
func TestStealRunMergedOutputStable(t *testing.T) {
	const n = 500
	want := make([]int, n)
	StealRun(n, StealOptions{Workers: 1}, func(i int) { want[i] = i * i })
	for _, workers := range []int{2, 3, 8} {
		for _, seed := range []int64{1, 7, 99} {
			got := make([]int, n)
			StealRun(n, StealOptions{Workers: workers, Seed: seed}, func(i int) { got[i] = i * i })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d seed=%d: slot %d = %d, want %d", workers, seed, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStealRebalances proves an idle worker really does take over a
// busy worker's backlog. With workers=2 and n=4 the deal is
// w0={0,2}, w1={1,3}; the tail pop makes worker 0 start with task 2,
// which blocks until task 0 — the one remaining in worker 0's deque —
// runs. Worker 1's own tasks are instant, so task 0 can only run if
// worker 1 steals it; without stealing, task 2 would sit blocked
// until its escape timeout fires.
func TestStealRebalances(t *testing.T) {
	release := make(chan struct{})
	var rebalanced atomic.Bool
	StealRun(4, StealOptions{Workers: 2, Seed: 3}, func(i int) {
		switch i {
		case 2:
			select {
			case <-release:
				rebalanced.Store(true)
			case <-time.After(5 * time.Second):
			}
		case 0:
			close(release)
		}
	})
	if !rebalanced.Load() {
		t.Fatal("blocked worker's backlog was never stolen")
	}
}

// TestStealDeque pins the deque primitives: owner pops newest-first,
// thief takes the oldest half in order.
func TestStealDeque(t *testing.T) {
	d := &stealDeque{items: []int{1, 2, 3, 4, 5}}
	if i, ok := d.popTail(); !ok || i != 5 {
		t.Fatalf("popTail = %d,%v want 5,true", i, ok)
	}
	got := d.stealHead()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("stealHead = %v, want [1 2] (oldest half of [1 2 3 4])", got)
	}
	if i, ok := d.popTail(); !ok || i != 4 {
		t.Fatalf("popTail after steal = %d,%v want 4,true", i, ok)
	}
	d2 := &stealDeque{}
	if got := d2.stealHead(); got != nil {
		t.Fatalf("stealHead of empty deque = %v, want nil", got)
	}
}

// TestRunPooledMatchesRun pins Run's pooled results byte-identical to
// a sequential fresh-machine emulator.Run of each job on a
// mixed-shape job list, including an invalid job whose error must
// survive in place.
func TestRunPooledMatchesRun(t *testing.T) {
	m := apps.MP3Model()
	var jobs []Job
	for _, size := range []int{36, 18, 12} {
		for _, p := range []*platform.Platform{apps.MP3Platform3(size), apps.MP3Platform2(size)} {
			jobs = append(jobs, Job{Label: fmt.Sprintf("%s/s=%d", p.Name, size), Model: m, Platform: p})
		}
	}
	// An infeasible job: package size rejected by validation.
	bad := apps.MP3Platform3(36)
	bad.PackageSize = -5
	jobs = append(jobs, Job{Label: "bad", Model: m, Platform: bad})

	got := Run(jobs, Options{Workers: 3, Seed: 9})
	if len(got) != len(jobs) {
		t.Fatalf("result count %d != %d", len(got), len(jobs))
	}
	for i, j := range jobs {
		want, wantErr := emulator.Run(j.Model, j.Platform, j.Config)
		if (wantErr == nil) != (got[i].Err == nil) {
			t.Fatalf("job %d (%s): err %v vs %v", i, j.Label, wantErr, got[i].Err)
		}
		if wantErr != nil {
			if wantErr.Error() != got[i].Err.Error() {
				t.Errorf("job %d error drifted: %v vs %v", i, wantErr, got[i].Err)
			}
			continue
		}
		wj, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := json.Marshal(got[i].Report)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wj, gj) {
			t.Errorf("job %d (%s): pooled report differs from fresh", i, j.Label)
		}
	}
	if got[len(jobs)-1].Err == nil {
		t.Error("invalid job reported success")
	}
}
