//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation adds allocations, so allocation bounds depend on it.
const raceEnabled = true
