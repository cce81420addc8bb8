//go:build race

package place

// raceEnabled reports a build under the race detector, which slows
// every search several-fold.
const raceEnabled = true
