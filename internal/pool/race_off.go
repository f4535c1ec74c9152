//go:build !race

package pool

// Race reports whether the race detector instruments this build; see
// race_on.go.
const Race = false
