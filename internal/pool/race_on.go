//go:build race

package pool

// Race reports whether the race detector instruments this build. It is
// the switch for every race-only check: the pools' poison fill and a
// recycled diff chunk's sentinel count. Allocation-count assertions skip
// under it, because the instrumentation allocates.
const Race = true
