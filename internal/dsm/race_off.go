//go:build !race

package dsm

// raceEnabled reports whether the race detector instruments this build;
// see race_on.go.
const raceEnabled = false
