// Package apps provides the parallel applications the paper evaluates:
// SOR and Go reimplementations of the SPLASH-2 codes Barnes, FFT, LU,
// Ocean, Water (n-squared), and Spatial (water-spatial). Each performs
// real computation on DSM-shared data using the same decomposition as the
// original, so the page-level sharing structure — what correlation
// tracking measures — matches the paper's.
//
// Every application follows the SPMD convention: thread 0 initializes the
// shared data, a barrier separates initialization from iteration, and each
// iteration ends with ctx.EndIteration(). When constructed with
// Verify: true, thread 0 checks an application-specific numerical
// invariant on the final iteration and fails the run on violation.
package apps

import (
	"fmt"

	"actdsm/internal/memlayout"
	"actdsm/internal/threads"
)

// App is a runnable DSM application.
type App interface {
	// Name identifies the application and input configuration
	// ("SOR", "FFT7", "LU2k", ...).
	Name() string
	// Threads returns the configured thread count.
	Threads() int
	// Iterations returns the number of EndIteration episodes a run
	// executes.
	Iterations() int
	// Setup allocates the application's shared regions.
	Setup(l *memlayout.Layout) error
	// Body returns thread tid's code. Call only after Setup.
	Body(tid int) threads.Body
}

// BlockRange splits n items into parts contiguous blocks and returns the
// half-open range of block idx. Leftover items go to the leading blocks,
// matching the engine's BlockPlacement.
func BlockRange(n, parts, idx int) (start, count int) {
	per := n / parts
	extra := n % parts
	start = idx*per + min(idx, extra)
	count = per
	if idx < extra {
		count++
	}
	return start, count
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Config selects a paper or test-scale configuration of an application.
type Config struct {
	// Threads is the application thread count (the paper uses 64).
	Threads int
	// Iterations overrides the default iteration count when positive.
	Iterations int
	// Verify enables the final-iteration numerical check.
	Verify bool
	// Scale selects input size: ScalePaper uses the paper's Table 1
	// inputs; ScaleTest uses small inputs that run in milliseconds.
	Scale Scale
}

// Scale selects an input-size class.
type Scale int

// Input-size classes.
const (
	ScaleTest Scale = iota + 1
	ScalePaper
)

// New builds the named application. Valid names are those returned by
// Names: Barnes, FFT6, FFT7, FFT8, LU1k, LU2k, Ocean, Spatial, SOR, Water.
func New(name string, cfg Config) (App, error) {
	if cfg.Threads <= 0 {
		return nil, fmt.Errorf("apps: %s: Threads must be positive", name)
	}
	if cfg.Scale == 0 {
		cfg.Scale = ScaleTest
	}
	for _, r := range registry {
		if r.name == name {
			return r.build(cfg)
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}

// Names returns the available application names in sorted order.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.name
	}
	return out
}

// registry lists the applications in Names' order.
var registry = []struct {
	name  string
	build func(Config) (App, error)
}{
	{"Barnes", func(c Config) (App, error) { return newBarnes(c) }},
	{"FFT6", func(c Config) (App, error) { return newFFT("FFT6", c, 6) }},
	{"FFT7", func(c Config) (App, error) { return newFFT("FFT7", c, 7) }},
	{"FFT8", func(c Config) (App, error) { return newFFT("FFT8", c, 8) }},
	{"LU1k", func(c Config) (App, error) { return newLU("LU1k", c, 1024) }},
	{"LU2k", func(c Config) (App, error) { return newLU("LU2k", c, 2048) }},
	{"Ocean", func(c Config) (App, error) { return newOcean(c) }},
	{"SOR", func(c Config) (App, error) { return newSOR(c) }},
	{"Spatial", func(c Config) (App, error) { return newSpatial(c) }},
	{"Water", func(c Config) (App, error) { return newWater(c) }},
}

// SharedPages runs an application's Setup against a fresh layout and
// returns its shared-page count (the paper's Table 1 right column).
func SharedPages(a App) (int, error) {
	l := memlayout.NewLayout()
	if err := a.Setup(l); err != nil {
		return 0, err
	}
	return l.TotalPages(), nil
}
