package parallel

import (
	"runtime"
	"testing"
)

// BenchmarkPoolSerial is the single-worker baseline for the sweep:
// Run on one worker, over pooled machines.
func BenchmarkPoolSerial(b *testing.B) {
	js := jobsBench()
	for i := 0; i < b.N; i++ {
		for _, r := range Run(js, Options{Workers: 1}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkPoolParallel uses every core; the ns/op ratio against the
// serial bench is the exploration speed-up.
func BenchmarkPoolParallel(b *testing.B) {
	js := jobsBench()
	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	for i := 0; i < b.N; i++ {
		for _, r := range Run(js, Options{}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

func jobsBench() []Job { return jobs(16) }
