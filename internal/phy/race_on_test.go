//go:build race

package phy

// raceEnabled reports whether the tests run under the race detector, whose
// instrumentation slows Go code and not assembly.
const raceEnabled = true
