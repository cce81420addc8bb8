package engine

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	if got := Time(75307617).String(); got != "75307617ps" {
		t.Errorf("String() = %q", got)
	}
}

func TestNewClockPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewClock(0) did not panic")
		}
	}()
	NewClock(0)
}

func TestClockNextEdge(t *testing.T) {
	c := NewClock(100)
	cases := []struct{ in, want Time }{
		{-5, 0}, {0, 0}, {1, 100}, {99, 100}, {100, 100}, {101, 200}, {250, 300},
	}
	for _, cse := range cases {
		if got := c.NextEdge(cse.in); got != cse.want {
			t.Errorf("NextEdge(%d) = %d, want %d", cse.in, got, cse.want)
		}
	}
}

func TestClockTicks(t *testing.T) {
	c := NewClock(10989) // 91 MHz
	if got := c.Ticks(250); got != 2747250 {
		t.Errorf("Ticks(250) = %d", got)
	}
}

func TestClockTicksElapsed(t *testing.T) {
	c := NewClock(100)
	cases := []struct {
		at   Time
		want int64
	}{
		{0, 0}, {-1, 0}, {1, 1}, {100, 1}, {101, 2}, {1000, 10}, {1001, 11},
	}
	for _, cse := range cases {
		if got := c.TicksElapsed(cse.at); got != cse.want {
			t.Errorf("TicksElapsed(%d) = %d, want %d", cse.at, got, cse.want)
		}
	}
}

func TestClockEdgeProperties(t *testing.T) {
	f := func(period uint16, at uint32) bool {
		p := int64(period) + 1
		c := NewClock(p)
		tm := Time(at)
		edge := c.NextEdge(tm)
		return edge >= tm && int64(edge)%p == 0 && edge-tm < Time(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimRunsInTimeOrder(t *testing.T) {
	s := NewSim()
	var seen []Time
	for _, at := range []Time{500, 100, 300, 200, 400} {
		at := at
		s.At(at, 0, func(now Time) { seen = append(seen, now) })
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 500 {
		t.Errorf("final time = %v", end)
	}
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Errorf("events out of order: %v", seen)
	}
	if len(seen) != 5 {
		t.Errorf("processed %d events", len(seen))
	}
}

func TestSimPriorityOrder(t *testing.T) {
	s := NewSim()
	var seen []int
	s.At(100, 2, func(Time) { seen = append(seen, 2) })
	s.At(100, 0, func(Time) { seen = append(seen, 0) })
	s.At(100, 1, func(Time) { seen = append(seen, 1) })
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 1 || seen[2] != 2 {
		t.Errorf("priority order violated: %v", seen)
	}
}

func TestSimSeqBreaksTies(t *testing.T) {
	s := NewSim()
	var seen []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, 0, func(Time) { seen = append(seen, i) })
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range seen {
		if v != i {
			t.Fatalf("insertion order not preserved among ties: %v", seen)
		}
	}
}

func TestSimSchedulingDuringRun(t *testing.T) {
	s := NewSim()
	count := 0
	var ping func(now Time)
	ping = func(now Time) {
		count++
		if count < 5 {
			s.At(now+10, 0, ping)
		}
	}
	s.At(0, 0, ping)
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 || end != 40 {
		t.Errorf("count=%d end=%v", count, end)
	}
}

func TestSimPastSchedulingPanics(t *testing.T) {
	s := NewSim()
	s.At(100, 0, func(now Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(50, 0, func(Time) {})
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSimNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	NewSim().At(0, 0, nil)
}

func TestSimStepLimit(t *testing.T) {
	s := NewSim()
	s.SetStepLimit(10)
	var loop func(now Time)
	loop = func(now Time) { s.At(now+1, 0, loop) }
	s.At(0, 0, loop)
	if _, err := s.Run(); err == nil {
		t.Error("runaway simulation not stopped by step limit")
	}
}

func TestSimDeterminism(t *testing.T) {
	// Property: a randomly generated event program yields the same
	// execution sequence on every run.
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var seen []Time
		var spawn func(now Time)
		depth := 0
		spawn = func(now Time) {
			seen = append(seen, now)
			depth++
			if depth < 200 {
				s.At(now+Time(rng.Intn(50)), rng.Intn(3), spawn)
			}
		}
		for i := 0; i < 20; i++ {
			s.At(Time(rng.Intn(100)), rng.Intn(3), spawn)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	for seed := int64(0); seed < 10; seed++ {
		a := run(seed)
		b := run(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: divergence at %d: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}
