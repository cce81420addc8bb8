package parallel

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"segbus/internal/apps"
	"segbus/internal/psdf"
)

func jobs(n int) []Job {
	m := apps.MP3Model()
	out := make([]Job, 0, n)
	sizes := []int{9, 12, 18, 24, 36, 48, 72}
	for i := 0; i < n; i++ {
		p := apps.MP3Platform3(sizes[i%len(sizes)])
		out = append(out, Job{Label: p.Name, Model: m, Platform: p})
	}
	return out
}

func TestRunPreservesOrder(t *testing.T) {
	js := jobs(12)
	results := Run(js, Options{Workers: 4})
	if len(results) != len(js) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Errorf("job %d: %v", i, r.Err)
		}
		if r.Report == nil {
			t.Errorf("job %d: nil report", i)
		}
	}
}

func TestRunMatchesSequential(t *testing.T) {
	js := jobs(8)
	seq := Run(js, Options{Workers: 1})
	par := Run(js, Options{Workers: 8})
	for i := range js {
		if !reflect.DeepEqual(seq[i].Report, par[i].Report) {
			t.Errorf("job %d: parallel result differs from sequential", i)
		}
	}
}

func TestRunContinuesAfterFailure(t *testing.T) {
	js := jobs(3)
	js[1].Model = psdf.NewModel("broken") // fails validation
	results := Run(js, Options{Workers: 2})
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("healthy jobs infected by a failing one")
	}
	if results[1].Err == nil {
		t.Error("broken job reported success")
	}
}

func TestRunRecoversPanics(t *testing.T) {
	js := jobs(2)
	js[0].Platform = nil // Run will panic dereferencing it
	results := Run(js, Options{Workers: 2})
	if results[0].Err == nil || results[0].Report != nil {
		t.Errorf("panicking job result = %+v", results[0])
	}
	if results[1].Err != nil {
		t.Error("sibling job failed")
	}
}

func TestRunProgressCallback(t *testing.T) {
	var count int32
	var mu sync.Mutex
	seen := map[int]bool{}
	Run(jobs(6), Options{
		Workers: 3,
		Progress: func(r Result) {
			atomic.AddInt32(&count, 1)
			mu.Lock()
			seen[r.Index] = true
			mu.Unlock()
		},
	})
	if count != 6 || len(seen) != 6 {
		t.Errorf("progress fired %d times for %d distinct jobs", count, len(seen))
	}
}

func TestRunEmpty(t *testing.T) {
	if got := Run(nil, Options{}); len(got) != 0 {
		t.Errorf("empty run = %v", got)
	}
}

func TestRunDefaultWorkers(t *testing.T) {
	results := Run(jobs(2), Options{}) // Workers: 0 selects GOMAXPROCS
	for _, r := range results {
		if r.Err != nil {
			t.Error(r.Err)
		}
	}
}
