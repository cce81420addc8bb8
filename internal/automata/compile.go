package automata

import (
	"errors"
	"fmt"

	"segbus/internal/platform"
	"segbus/internal/psdf"
	"segbus/internal/sched"
)

// ErrTooLarge marks a model whose product encoding would overflow the
// compact state layout; exact analysis is skipped for it, and only the
// emulation itself can tell whether it deadlocks.
var ErrTooLarge = errors.New("automata: model too large for exact analysis")

// Encoding capacity limits: counters are packed as uint16, so the
// package and stage counts must fit, with headroom below the
// representable maximum. The package limit also bounds the reduced
// run of Check at 4·maxPackages = 2^17 steps.
const (
	maxPackages = 1 << 15
	maxStages   = 1 << 14
	maxProcs    = 1 << 12
)

// Compile builds the product system for model m mapped onto plat.
// Both inputs are validated first; a validation error is returned
// as-is, so callers can distinguish broken models (skip silently —
// the structural analyzers own those findings) from oversized ones
// (ErrTooLarge). plat may be nil to check a bare application model:
// every process then shares one implicit segment and the package
// size falls back to the model's nominal (or 1 when unset) —
// deadlock is a property of the firing gates, not of the platform
// timing, so the verdict is meaningful either way.
func Compile(m *psdf.Model, plat *platform.Platform) (*System, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	packageSize := 0
	if plat != nil {
		if err := plat.Validate(); err != nil {
			return nil, err
		}
		if err := plat.ValidateMapping(m); err != nil {
			return nil, err
		}
		if err := plat.ValidateRoles(m); err != nil {
			return nil, err
		}
		packageSize = plat.PackageSize
	} else {
		packageSize = m.NominalPackageSize()
		if packageSize <= 0 {
			packageSize = 1
		}
	}
	// Counted before Extract, which compiles one program entry per
	// package.
	if t := m.TotalPackages(packageSize); t > maxPackages {
		return nil, fmt.Errorf("%w: %d packages (max %d)", ErrTooLarge, t, maxPackages)
	}
	sch, err := sched.Extract(m, packageSize)
	if err != nil {
		return nil, err
	}
	if n := sch.NumStages(); n > maxStages {
		return nil, fmt.Errorf("%w: %d stages (max %d)", ErrTooLarge, n, maxStages)
	}
	procs := m.Processes()
	if len(procs) > maxProcs {
		return nil, fmt.Errorf("%w: %d processes (max %d)", ErrTooLarge, len(procs), maxProcs)
	}

	s := &System{
		sch:     sch,
		procs:   procs,
		procIdx: make(map[psdf.ProcessID]int, len(procs)),
		segOf:   make([]int, len(procs)),
		// Emission programs: each process's window of the schedule's
		// compiled table, the one the emulator's machines read.
		programs:  make([][]sched.Entry, len(procs)),
		numStages: sch.NumStages(),
	}
	for i, p := range procs {
		s.procIdx[p] = i
		if plat != nil {
			s.segOf[i] = plat.SegmentOf(p)
		} else {
			s.segOf[i] = 1
		}
		s.programs[i] = sch.Program(p)
		if len(s.programs[i]) > 0 {
			s.emitters = append(s.emitters, i)
		}
	}

	// Symmetry reduction: a segment hosting no emitter is inert — its
	// bus automaton never leaves its initial state — so it contributes
	// nothing to the product. The grant rule below only ever inspects
	// emitters, which prunes such segments implicitly; record how many
	// for the result's accounting.
	active := make(map[int]bool)
	for _, e := range s.emitters {
		active[s.segOf[e]] = true
	}
	if plat != nil {
		s.pruned = plat.NumSegments() - len(active)
	}
	return s, nil
}
