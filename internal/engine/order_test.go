package engine

import (
	"math/rand"
	"testing"
)

// refEnt is one event of the brute-force reference queue.
type refEnt struct {
	at     Time
	prio   int
	seq    uint64
	serial int
}

// TestDispatchMatchesBruteForce checks the heap's dispatch order
// against a naive reference — an unordered slice scanned linearly for
// the minimum (time, priority, seq) — over seeded workloads dense in
// equal-time and equal-priority ties, with handlers that schedule more
// events, runs cut short by the step limit, and Resets issued while
// the queue still holds events.
func TestDispatchMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		var ref []refEnt
		var refSeq, refSteps uint64
		var refNow Time
		serial, budget := 0, 150

		refPop := func() refEnt {
			if len(ref) == 0 {
				t.Fatalf("seed %d: kernel dispatched an event the reference does not hold", seed)
			}
			m := 0
			for i, e := range ref[1:] {
				if e.at < ref[m].at ||
					e.at == ref[m].at && (e.prio < ref[m].prio ||
						e.prio == ref[m].prio && e.seq < ref[m].seq) {
					m = i + 1
				}
			}
			e := ref[m]
			ref[m] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			refSteps++
			return e
		}
		refReset := func() {
			ref, refSeq, refSteps, refNow = ref[:0], 0, 0, 0
		}

		var schedule func(at Time, prio int)
		schedule = func(at Time, prio int) {
			sn := serial
			serial++
			budget--
			ref = append(ref, refEnt{at: at, prio: prio, seq: refSeq, serial: sn})
			refSeq++
			s.At(at, prio, func(now Time) {
				if want := refPop(); want.serial != sn || want.at != now {
					t.Fatalf("seed %d: dispatched event %d at %v, reference wants event %d at %v",
						seed, sn, now, want.serial, want.at)
				}
				refNow = now
				for k := rng.Intn(3); k > 0 && budget > 0; k-- {
					schedule(now+Time(rng.Intn(8)), rng.Intn(2))
				}
			})
		}

		for phase := 0; phase < 6; phase++ {
			for i, n := 0, 1+rng.Intn(8); i < n && budget > 0; i++ {
				schedule(s.Now()+Time(rng.Intn(16)), rng.Intn(2))
			}
			switch rng.Intn(4) {
			case 0: // Reset with the queue full: nothing queued may fire
				s.Reset()
				refReset()
			case 1: // the step limit cuts the run short, then Reset mid-queue
				s.SetStepLimit(s.Steps() + uint64(rng.Intn(6)))
				now, err := s.Run()
				s.SetStepLimit(0)
				if err != nil {
					// The event that tripped the limit was consumed unfired.
					if want := refPop(); want.at != now {
						t.Fatalf("seed %d: step limit tripped at %v, reference minimum at %v", seed, now, want.at)
					}
				} else if len(ref) != 0 {
					t.Fatalf("seed %d: Run returned with %d reference events left", seed, len(ref))
				}
				if s.Steps() != refSteps {
					t.Fatalf("seed %d: Steps() = %d, reference %d", seed, s.Steps(), refSteps)
				}
				s.Reset()
				refReset()
			default:
				now, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(ref) != 0 || now != refNow || s.Steps() != refSteps {
					t.Fatalf("seed %d: Run ended at %v after %d steps with %d reference events left; reference at %v after %d steps",
						seed, now, s.Steps(), len(ref), refNow, refSteps)
				}
			}
		}
	}
}
