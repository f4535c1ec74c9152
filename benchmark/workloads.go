// Package benchmark is the repository's one benchmark: four paper-scale
// workloads run through the public facade (actdsm.NewApp /
// NewServingApp → NewSystem → RunContext), measured on both of this
// repository's clocks — the wall clock (what the Go code costs) and the
// sim virtual clock (what the paper's claims are about) — plus a traced
// run that attributes the wall time to the layers from outside and a
// ladder of per-layer micro-rungs. README.md has the workload table,
// the metric glossary and the commands; BENCHMARK.json at the repository
// root is the contract the metric tables in metrics.go are checked
// against.
//
// The clock rule: internal/sim's TestNoAmbientNondeterminism bans
// wall-clock reads in every non-test file of the repository, so every
// time.Now lives in this package's _test.go files and the driver is the
// package's test binary (TestMain dispatches on -workload / -compare).
// The non-test files hold what needs no clock: workload definitions,
// metric tables, span arithmetic, reporting and comparison.
package benchmark

import (
	"fmt"

	"actdsm"
)

const (
	// nodes is the cluster size of every workload.
	nodes = 8
	// threads is the application thread count of the epoch workloads.
	threads = 64
	// warmup is the number of leading iterations excluded from every
	// per-iteration figure: initialisation, cold faults, and (on
	// water_ctl) the first tracked window and controller evaluation.
	warmup = 3
)

// scale selects the paper-sized inputs the benchmark measures or the
// millisecond-sized ones the package's own tests run.
type scale int

const (
	scalePaper scale = iota
	scaleTest
)

// workload is one benchmark workload. A round runs warmup iterations,
// then iters[scale] measured ones, then (epoch applications only) one
// more in which the application verifies its own result.
type workload struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json
	// carries the same string.
	why string
	// iters is the measured iterations per round, indexed by scale. The
	// paper-scale counts size a round to 3–4 s on the 2-vCPU reference
	// box and cover whole periods of the workload's own cycle (SOR's GC
	// round every ~2.5 iterations, Ocean's every 4).
	iters [2]int
	// serving marks the request-driven workload: no verification
	// iteration, and a ServeReport to check and report.
	serving bool
	// build makes the round's inputs from the seed: the application and
	// the system configuration. The program receives only these.
	build func(rng *actdsm.RNG, sc scale, measured int) (actdsm.Workload, actdsm.SystemConfig, error)
}

// workloads lists the benchmark's workloads in reporting order.
var workloads = []workload{
	{
		name:  "sor_local",
		why:   "Barrier-and-diff bound: dense whole-page diffs, twin copies and a DSM GC round every ~2.5 iterations, no locks; sockets, tracker and placement are bypassed.",
		iters: [2]int{20, 4},
		build: func(rng *actdsm.RNG, sc scale, measured int) (actdsm.Workload, actdsm.SystemConfig, error) {
			cfg := actdsm.SystemConfig{ShuffleSeed: rng.Uint64() | 1}
			// SOR's virtual time does not depend on thread order, so the
			// seed also moves one thread pair across a node boundary of
			// the stretch placement: a <1% change in cut cost that lets
			// the seed reach sim_ms_per_iter.
			cfg.Placement = actdsm.Stretch(threads, nodes)
			n := rng.Intn(nodes - 1)
			per := threads / nodes
			i, j := n*per+rng.Intn(per), (n+1)*per+rng.Intn(per)
			cfg.Placement[i], cfg.Placement[j] = cfg.Placement[j], cfg.Placement[i]
			app, err := epochApp("SOR", sc, measured)
			return app, cfg, err
		},
	},
	{
		name:  "ocean_tcp",
		why:   "The same protocol over real loopback sockets with 4 barriers per iteration: codec, mux and barrier fan-out are over half the wall time that sor_local hides.",
		iters: [2]int{12, 4},
		build: func(rng *actdsm.RNG, sc scale, measured int) (actdsm.Workload, actdsm.SystemConfig, error) {
			cfg := actdsm.SystemConfig{ShuffleSeed: rng.Uint64() | 1}
			cfg.Cluster.UseTCP = true
			app, err := epochApp("Ocean", sc, measured)
			return app, cfg, err
		},
	},
	{
		name:  "water_ctl",
		why:   "The paper's mechanism live: a random start, re-tracking every 2nd iteration, controller evaluations and thread migration under a lock-heavy app; placement decides sim time.",
		iters: [2]int{32, 6},
		build: func(rng *actdsm.RNG, sc scale, measured int) (actdsm.Workload, actdsm.SystemConfig, error) {
			ctl := actdsm.DefaultControllerConfig()
			cfg := actdsm.SystemConfig{
				Placement:   actdsm.RandomBalanced(threads, nodes, rng),
				ShuffleSeed: rng.Uint64() | 1,
				Controller:  &ctl,
			}
			app, err := epochApp("Water", sc, measured)
			return app, cfg, err
		},
	},
	{
		name:    "servekv_mixed",
		why:     "DSM the other way round: 8192 short requests per window, lock-granted consistency, sparse diffs (one 512 B value per page), 20% writes beside lock-free reads.",
		iters:   [2]int{56, 4},
		serving: true,
		build: func(rng *actdsm.RNG, sc scale, measured int) (actdsm.Workload, actdsm.SystemConfig, error) {
			sc2 := actdsm.ServingConfig{
				Clients: 32, Keys: 4096, ValueBytes: 512, RequestsPerWindow: 256,
				ReadFraction: 0.8, ZipfS: 1.1, Groups: 8,
				WarmupWindows: warmup, MeasureWindows: measured,
				// The request stream is fixed and the seed orders the
				// threads, as on ocean_tcp. ServingConfig.Seed draws the
				// hot keys' pages, homes and lock stripes as well as the
				// requests, and that structure alone moves sim_ms_per_iter
				// by 2.5% and allocs_per_iter by 1.7% between seeds —
				// more than those metrics' regression bounds.
				Seed: 1,
			}
			if sc == scaleTest {
				sc2.Clients, sc2.Keys, sc2.ValueBytes, sc2.RequestsPerWindow = 16, 256, 64, 16
			}
			cfg := actdsm.SystemConfig{ShuffleSeed: rng.Uint64() | 1}
			cfg.Cluster.BatchDiffs = true
			app, err := actdsm.NewServingApp(sc2)
			return app, cfg, err
		},
	},
}

// epochApp builds a verifying epoch application that runs the warm-up,
// the measured iterations and one verification iteration. Verification
// reads the whole result on thread 0 inside the final iteration, which
// is why that iteration is outside the measured span.
func epochApp(name string, sc scale, measured int) (actdsm.App, error) {
	appScale := actdsm.ScalePaper
	if sc == scaleTest {
		appScale = actdsm.ScaleTest
	}
	return actdsm.NewApp(name, actdsm.AppConfig{
		Threads:    threads,
		Scale:      appScale,
		Iterations: warmup + measured + 1,
		Verify:     true,
	})
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("benchmark: unknown workload %q", name)
}
