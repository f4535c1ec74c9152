//go:build race

package dsm

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions skip under it (instrumentation allocates).
const raceEnabled = true
