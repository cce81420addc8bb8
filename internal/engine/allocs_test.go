package engine

import "testing"

// TestSteadyStateAllocs pins the kernel's zero-allocation guarantee:
// once the heap has grown to the workload's high-water mark, a
// self-rescheduling event chain runs without a single heap allocation
// per dispatched event.
func TestSteadyStateAllocs(t *testing.T) {
	s := NewSim()
	left := 0
	var h Handler
	h = func(now Time) {
		if left > 0 {
			left--
			s.At(now+7, 0, h)
		}
	}
	var err error
	chain := func() {
		left = 100
		s.At(s.Now(), 0, h)
		_, err = s.Run()
	}
	chain() // warm the heap
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, chain)
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("steady-state At+dispatch allocates %v per chain, want 0", allocs)
	}
}
