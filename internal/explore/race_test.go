//go:build race

package explore

// raceEnabled reports a build under the race detector, which slows
// every emulation several-fold.
const raceEnabled = true
