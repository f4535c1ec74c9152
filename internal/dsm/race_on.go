//go:build race

package dsm

// raceEnabled reports whether the race detector instruments this build.
// Race builds poison what dsm's own pools take back — a recycled twin,
// page image or stored diff reads as poisonByte, and a recycled diffRef's
// count as refsRecycled (shard.go) — so a read or a reference through a
// stale alias fails by name. Allocation-count assertions skip under it
// (instrumentation allocates).
const raceEnabled = true
