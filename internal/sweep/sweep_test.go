package sweep

import (
	"strings"
	"sync"
	"testing"
	"time"

	"segbus/internal/apps"
	"segbus/internal/obs"
	"segbus/internal/platform"
)

func TestPackageSizesCurve(t *testing.T) {
	m := apps.MP3Model()
	base := apps.MP3Platform3(36)
	c := PackageSizes(m, base, []int{9, 18, 36, 72, 144})
	if len(c.Points) != 5 {
		t.Fatalf("points = %d", len(c.Points))
	}
	for _, pt := range c.Points {
		if pt.Err != nil {
			t.Fatalf("s=%d: %v", pt.Value, pt.Err)
		}
		if pt.ExecPs <= 0 {
			t.Fatalf("s=%d: no exec time", pt.Value)
		}
	}
	// The MP3 model's compute work is packaging-independent (nominal
	// size set), so execution time must fall monotonically as the
	// package grows: fewer per-package overheads.
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].ExecPs >= c.Points[i-1].ExecPs {
			t.Errorf("exec not decreasing at s=%d: %d vs %d",
				c.Points[i].Value, c.Points[i].ExecPs, c.Points[i-1].ExecPs)
		}
	}
	// The base platform must be untouched.
	if base.PackageSize != 36 {
		t.Error("base platform mutated")
	}
}

func TestHeaderTicksMonotone(t *testing.T) {
	m := apps.MP3Model()
	c := HeaderTicks(m, apps.MP3Platform3(36), []int{0, 10, 25, 50})
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Err != nil {
			t.Fatal(c.Points[i].Err)
		}
		if c.Points[i].ExecPs <= c.Points[i-1].ExecPs {
			t.Errorf("header %d not slower than %d", c.Points[i].Value, c.Points[i-1].Value)
		}
	}
}

func TestCAHopTicksMonotone(t *testing.T) {
	m := apps.MP3Model()
	c := CAHopTicks(m, apps.MP3Platform3(36), []int{0, 25, 100})
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Err != nil {
			t.Fatal(c.Points[i].Err)
		}
		if c.Points[i].ExecPs <= c.Points[i-1].ExecPs {
			t.Errorf("hop cost %d not slower than %d", c.Points[i].Value, c.Points[i-1].Value)
		}
	}
}

func TestSegmentClockFasterIsFaster(t *testing.T) {
	m := apps.MP3Model()
	// Segment 2 hosts the long output chain: speeding it up must help.
	c, err := SegmentClock(m, apps.MP3Platform3(36), 2,
		[]platform.Hz{60 * platform.MHz, 98 * platform.MHz, 200 * platform.MHz})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Err != nil {
			t.Fatal(c.Points[i].Err)
		}
		if c.Points[i].ExecPs >= c.Points[i-1].ExecPs {
			t.Errorf("clock %d not faster than %d", c.Points[i].Value, c.Points[i-1].Value)
		}
	}
	if _, err := SegmentClock(m, apps.MP3Platform3(36), 9, nil); err == nil {
		t.Error("bad segment accepted")
	}
}

func TestCurveRenderings(t *testing.T) {
	m := apps.MP3Model()
	c := PackageSizes(m, apps.MP3Platform3(36), []int{18, 36})
	csv := c.CSV()
	if !strings.HasPrefix(csv, "packageSize,exec_us\n") || !strings.Contains(csv, "36,") {
		t.Errorf("CSV:\n%s", csv)
	}
	table := c.Table()
	if !strings.Contains(table, "exec (us)") {
		t.Errorf("table:\n%s", table)
	}
	// Failed points render gracefully.
	bad := PackageSizes(m, apps.MP3Platform3(36), []int{0})
	if bad.Points[0].Err == nil {
		t.Fatal("package size 0 accepted")
	}
	if !strings.Contains(bad.CSV(), "0,\n") || !strings.Contains(bad.Table(), "error") {
		t.Error("failed point rendering wrong")
	}
}

// TestCurveIndependentOfWorkers pins the determinism contract: one
// worker and eight workers under another steal seed give identical
// curves, point for point, a failing point included, and the failure
// stays in its own slot.
func TestCurveIndependentOfWorkers(t *testing.T) {
	m := apps.MP3Model()
	sizes := []int{9, 18, 0, 36, 72, 144, 12, 24} // 0 fails validation
	serial := PackageSizes(m, apps.MP3Platform3(36), sizes, Options{Workers: 1})
	wide := PackageSizes(m, apps.MP3Platform3(36), sizes, Options{Workers: 8, Seed: 13})
	if len(serial.Points) != len(sizes) || len(wide.Points) != len(sizes) {
		t.Fatalf("points = %d / %d, want %d", len(serial.Points), len(wide.Points), len(sizes))
	}
	for i := range sizes {
		a, b := serial.Points[i], wide.Points[i]
		if a.Value != int64(sizes[i]) || b.Value != int64(sizes[i]) {
			t.Errorf("point %d: values %d / %d, want %d", i, a.Value, b.Value, sizes[i])
		}
		if (a.Err == nil) != (sizes[i] != 0) {
			t.Errorf("point %d (size %d): err = %v", i, sizes[i], a.Err)
		}
		if a.ExecPs != b.ExecPs || (a.Err == nil) != (b.Err == nil) ||
			(a.Err != nil && a.Err.Error() != b.Err.Error()) {
			t.Errorf("point %d: workers=1 gave (%d, %v), workers=8 gave (%d, %v)", i, a.ExecPs, a.Err, b.ExecPs, b.Err)
		}
	}
	if serial.CSV() != wide.CSV() || serial.Table() != wide.Table() {
		t.Errorf("renderings differ:\n%s\nvs\n%s", serial.Table(), wide.Table())
	}
}

func TestSweepHeartbeat(t *testing.T) {
	var buf syncBuffer
	hb := obs.NewHeartbeat(&buf, "sample", time.Nanosecond, 3)
	c := PackageSizes(apps.MP3Model(), apps.MP3Platform3(36), []int{18, 36, 72},
		Options{Heartbeat: hb})
	if len(c.Points) != 3 {
		t.Fatalf("points = %d", len(c.Points))
	}
	out := buf.String()
	if !strings.Contains(out, "(done)") {
		t.Errorf("no final heartbeat line:\n%s", out)
	}
	if !strings.Contains(out, "3/3 samples") {
		t.Errorf("final line lacks totals:\n%s", out)
	}
	// Without options nothing is printed and nothing panics.
	PackageSizes(apps.MP3Model(), apps.MP3Platform3(36), []int{36})
}

// syncBuffer is a strings.Builder safe for the heartbeat's concurrent
// writes from the sweep's workers.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
