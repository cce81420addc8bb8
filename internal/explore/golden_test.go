package explore

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"segbus/internal/apps"
)

// pointsDigest hashes every point of a run, one line per candidate:
// index, label, both latency bounds, the energy bound's bits, the
// outcome, and the emulated figures. The JSON report carries only the
// counters and the front, so this is what pins the bounds and
// verdicts of the pruned candidates.
func pointsDigest(r *Result) string {
	h := sha256.New()
	for i := range r.Points {
		p := &r.Points[i]
		outcome := "error"
		switch {
		case p.Err != nil:
			outcome = "error:" + p.Err.Error()
		case p.Pruned:
			outcome = "pruned"
		case p.Emulated:
			outcome = "emulated"
		}
		fmt.Fprintf(h, "%d %s %d %d %016x %s %d %016x\n",
			p.Index, p.Label, p.LowerPs, p.UpperPs, math.Float64bits(p.EnergyLBPJ),
			outcome, p.ExecPs, math.Float64bits(p.TotalPJ))
	}
	return fmt.Sprintf("%x\n", h.Sum(nil))
}

// TestReferencePointsGolden pins the per-point results of the pruned
// reference MP3 exploration. Regenerate after a deliberate change to
// the bounds, the pruning order or the estimates with:
//
//	UPDATE_GOLDEN=1 go test ./internal/explore -run TestReferencePointsGolden
func TestReferencePointsGolden(t *testing.T) {
	const golden = "../../testdata/golden/explore-mp3-reference-points.sha256"
	res, err := Run(apps.MP3Model(), ReferenceMP3Space(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := pointsDigest(res)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s is stale: got %s", golden, strings.TrimSpace(got))
	}
}
