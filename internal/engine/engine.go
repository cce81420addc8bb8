// Package engine provides the deterministic discrete-event simulation
// kernel underneath the SegBus emulator.
//
// The kernel models wall-clock time in integer picoseconds (the unit
// the paper reports) and supports multiple clock domains: every
// platform element acts on edges of its own clock. Events scheduled
// for the same picosecond are delivered in a deterministic order —
// (time, priority, sequence number) — so a simulation is exactly
// reproducible across runs and across drivers.
//
// The event queue is a value-typed 4-ary min-heap of 32-byte entries
// that carry their handler inline. The kernel only schedules and
// runs: there is no cancellation and no windowed run, so Run drains
// the queue in order. Steady-state operation — events
// fired at the rate they are scheduled — performs zero heap
// allocations (pinned by TestSteadyStateAllocs), and the dispatch
// order is pinned by TestDispatchOrderGolden and checked against a
// brute-force reference by TestDispatchMatchesBruteForce.
package engine

import (
	"fmt"
	"math"

	"segbus/internal/obs"
)

// Time is an absolute simulation time in picoseconds.
type Time int64

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// String renders the time the way the paper's reports do, e.g.
// "75307617ps".
func (t Time) String() string { return fmt.Sprintf("%dps", int64(t)) }

// Clock is a clock domain: a period in picoseconds. Elements quantise
// their actions to edges of their clock.
type Clock struct {
	periodPs int64
}

// NewClock returns a clock domain with the given period in
// picoseconds. The period must be positive.
func NewClock(periodPs int64) Clock {
	if periodPs <= 0 {
		panic("engine: non-positive clock period")
	}
	return Clock{periodPs: periodPs}
}

// PeriodPs returns the clock period in picoseconds.
func (c Clock) PeriodPs() int64 { return c.periodPs }

// Ticks converts a number of clock ticks into a duration in
// picoseconds.
func (c Clock) Ticks(n int64) Time { return Time(n * c.periodPs) }

// NextEdge returns the earliest clock edge at or after t. Edges sit at
// integer multiples of the period, with an edge at time zero.
func (c Clock) NextEdge(t Time) Time {
	if t <= 0 {
		return 0
	}
	rem := int64(t) % c.periodPs
	if rem == 0 {
		return t
	}
	return t + Time(c.periodPs-rem)
}

// TicksElapsed returns how many full clock ticks fit in the interval
// [0, t]: the tick count an element of this domain has accumulated by
// absolute time t if it counted continuously from the start of the
// emulation. This is the conversion the paper uses between TCT values
// and execution times (t_SAx = TCT × period).
func (c Clock) TicksElapsed(t Time) int64 {
	if t <= 0 {
		return 0
	}
	return (int64(t) + c.periodPs - 1) / c.periodPs
}

// Handler is the callback attached to a scheduled event.
type Handler func(now Time)

// heapEnt is one entry of the 4-ary min-heap: the full ordering key
// plus the handler. The field layout packs one entry into 32 bytes.
type heapEnt struct {
	at   Time
	seq  uint64
	prio int
	fn   Handler
}

// entLess is the deterministic total order: time, then priority, then
// scheduling sequence.
func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// Sim is a discrete-event simulation instance. The zero value is not
// usable; construct with NewSim.
type Sim struct {
	now    Time
	heap   []heapEnt
	seq    uint64
	steps  uint64
	limit  uint64       // safety valve against runaway models; 0 = unlimited
	events *obs.Counter // optional per-event metric; nil no-ops
}

// NewSim returns an empty simulation positioned at time zero.
func NewSim() *Sim {
	return &Sim{}
}

// SetStepLimit installs a safety limit on the number of events the
// simulation will process; Run returns an error once exceeded. A limit
// of zero (the default) disables the check.
func (s *Sim) SetStepLimit(n uint64) { s.limit = n }

// SetEventCounter streams every processed event into an obs counter,
// so a live scrape sees simulation progress while Run is still
// inside its loop. A nil counter (the default) keeps the dispatch
// loop free of metric work beyond one pointer test.
func (s *Sim) SetEventCounter(c *obs.Counter) { s.events = c }

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Steps returns the number of events processed so far.
func (s *Sim) Steps() uint64 { return s.steps }

// pushHeap appends e and restores the heap order (sift-up).
func (s *Sim) pushHeap(e heapEnt) {
	s.heap = append(s.heap, e)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// siftDown re-inserts e — the entry displaced from the tail when the
// root was removed — into the first n heap entries, starting at the
// root.
func (s *Sim) siftDown(e heapEnt, n int) {
	h := s.heap
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entLess(h[j], h[m]) {
				m = j
			}
		}
		if !entLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
}

// At schedules fn to run at absolute time at with the given priority
// (lower priorities run first among simultaneous events). Scheduling
// in the past panics: that is always a model bug.
func (s *Sim) At(at Time, priority int, fn Handler) {
	if at < s.now {
		panic(fmt.Sprintf("engine: scheduling event at %v before now %v", at, s.now))
	}
	if fn == nil {
		panic("engine: nil event handler")
	}
	s.pushHeap(heapEnt{at: at, prio: priority, seq: s.seq, fn: fn})
	s.seq++
}

// Reset returns the simulation to time zero with an empty queue while
// keeping the heap's backing array for reuse: a Reset-then-reschedule
// cycle performs no allocations once the array has grown to its
// working size. Queued handlers are cleared so the array keeps none of
// them reachable. The step limit and event counter are deliberately
// kept — callers that reconfigure per run overwrite them anyway, and
// callers that don't expect them to persist.
//
// The sequence counter restarts at zero, so two identical schedules —
// one on a fresh Sim, one after Reset — dispatch in byte-identical
// order.
func (s *Sim) Reset() {
	clear(s.heap)
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.steps = 0
}

// Run processes events in order until the queue is empty or the step
// limit is exceeded. It returns the final simulation time.
func (s *Sim) Run() (Time, error) {
	for len(s.heap) > 0 {
		h := s.heap
		top := h[0]
		n := len(h) - 1
		last := h[n]
		h[n] = heapEnt{} // the vacated tail must not keep a handler reachable
		s.heap = h[:n]
		if n > 0 {
			s.siftDown(last, n)
		}
		s.now = top.at
		s.steps++
		s.events.Inc()
		if s.limit > 0 && s.steps > s.limit {
			return s.now, fmt.Errorf("engine: step limit %d exceeded at %v (livelock?)", s.limit, s.now)
		}
		top.fn(s.now)
	}
	return s.now, nil
}
