package benchmark

// The driver. Everything that reads a clock is in this file, the ladder
// and the tests, because the repository bans wall-clock reads from
// non-test files (see the package comment).

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"actdsm"
)

var (
	flagWorkload = flag.String("workload", "", "run this workload and print its metrics (one of the names in BENCHMARK.json)")
	flagSeed     = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	flagSeconds  = flag.Float64("seconds", 10, "measure for at least this many seconds: rounds are added until their measured spans add up to it")
	flagTrace    = flag.Int("trace", 0, "1: alternate untraced and traced rounds, run the ladder, report the per-layer metrics")
	flagOut      = flag.String("out", "", "write the run's summary here (default out/<workload>.<e2e|layers>.summary.json)")
	flagCompare  = flag.Bool("compare", false, "compare two result sets: -compare DIR_A DIR_B, each a directory of summaries")
)

// TestMain makes the test binary the benchmark's driver: with -workload
// it runs one workload, with -compare it compares two result sets, and
// otherwise it runs the package's tests, which are the fast self-checks.
func TestMain(m *testing.M) {
	flag.Parse()
	switch {
	case *flagCompare:
		os.Exit(compareMain(os.Stdout, flag.Args()))
	case *flagWorkload != "":
		os.Exit(runMain())
	}
	os.Exit(m.Run())
}

// marks are the process-wide readings a measured span is bracketed with.
type marks struct {
	cpu             time.Duration
	mallocs, allocs uint64
	snap            actdsm.Snapshot
}

func takeMarks(c *actdsm.Cluster) marks {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return marks{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		allocs:  ms.TotalAlloc,
		snap:    c.Stats().Snapshot(),
	}
}

// runRound builds the workload's inputs from the seed, sets the system
// up, runs it to completion and checks its outputs. Traced rounds also
// return their tracer, for the span file.
func runRound(w *workload, sc scale, seed uint64, traced bool) (r round, tr *tracer) {
	measured := w.iters[sc]
	r = round{iters: measured}
	runtime.GC() // the previous round's cluster is garbage; do not let it pace this round's collector
	t0 := time.Now()
	app, cfg, err := w.build(actdsm.NewRNG(seed), sc, measured)
	if err != nil {
		r.err = err
		return r, nil
	}
	sys, err := actdsm.NewSystem(app, nodes, actdsm.WithConfig(cfg))
	if err != nil {
		r.err = err
		return r, nil
	}
	defer func() { _ = sys.Close() }()
	cluster := sys.Cluster()

	var hooks actdsm.Hooks
	if traced {
		tr = newTracer(func() int64 { return int64(time.Since(t0)) }, measured)
		hooks.OnThreadRun = tr.onThreadRun
		hooks.OnBarrier = tr.onBarrier
		cluster.SetProbe(&actdsm.Probe{TransportCall: tr.onCall})
		cluster.AddAccessHook(tr.onAccess)
		sys.Engine().SetObserver(tr)
	}
	var (
		start              marks
		spanStart, lastEnd time.Time
		lastSim            actdsm.Time
		lastTrackFaults    int64
	)
	hooks.OnIteration = func(iter int) {
		if iter == warmup-1 {
			r.setupNS = int64(time.Since(t0))
			start = takeMarks(cluster)
		}
		now := time.Now()
		if traced {
			tr.onIteration(iter)
		}
		sim, trackFaults := sys.Elapsed(), cluster.Stats().TrackingFaults.Load()
		if iter == warmup-1 {
			spanStart = now
		}
		if iter >= warmup && iter < warmup+measured {
			r.iterWallNS = append(r.iterWallNS, int64(now.Sub(lastEnd)))
			r.iterSimNS = append(r.iterSimNS, int64(sim-lastSim))
			if trackFaults > lastTrackFaults {
				r.trackedIters++
			}
		}
		if iter == warmup+measured-1 {
			r.wallNS = int64(now.Sub(spanStart))
			end := takeMarks(cluster)
			r.cpuNS = int64(end.cpu - start.cpu)
			r.mallocs = end.mallocs - start.mallocs
			r.allocBytes = end.allocs - start.allocs
			r.counts = end.snap.Sub(start.snap)
			r.storedDiffBytes = cluster.StoredDiffBytes()
		}
		lastEnd, lastSim, lastTrackFaults = now, sim, trackFaults
	}
	if err := sys.SetHooks(hooks); err != nil {
		r.err = err
		return r, nil
	}

	r.err = sys.RunContext(context.Background())
	if traced {
		tr.finish()
		r.trace = tr.aggregate()
	}
	if r.err == nil {
		r.err = cluster.CheckCoherence()
	}
	if r.err == nil && w.serving {
		r.serve, r.err = checkServing(app)
	}
	if r.err == nil && len(r.iterWallNS) != measured {
		r.err = fmt.Errorf("benchmark: %d of %d measured iterations ran", len(r.iterWallNS), measured)
	}
	r.final = cluster.Stats().Snapshot().Counters()
	r.elapsed = sys.Elapsed()
	return r, tr
}

// checkServing checks request conservation on the serving workload:
// every client issued its quota in every measured window, and every
// request was a read or a write.
func checkServing(app actdsm.Workload) (*actdsm.ServeReport, error) {
	kv, ok := app.(interface {
		Config() actdsm.ServingConfig
		Report() (*actdsm.ServeReport, error)
	})
	if !ok {
		return nil, fmt.Errorf("benchmark: %s is not the serving workload", app.Name())
	}
	rep, err := kv.Report()
	if err != nil {
		return nil, err
	}
	c := kv.Config()
	if want := int64(c.Clients * c.RequestsPerWindow * c.MeasureWindows); rep.Requests != want {
		return rep, fmt.Errorf("benchmark: %d requests measured, want %d", rep.Requests, want)
	}
	if rep.Reads+rep.Writes != rep.Requests {
		return rep, fmt.Errorf("benchmark: %d reads + %d writes != %d requests", rep.Reads, rep.Writes, rep.Requests)
	}
	return rep, nil
}

// runMain runs one workload as the flags say and prints the report; the
// exit code is 0 only when every round's outputs checked out.
func runMain() int {
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	w, err := findWorkload(*flagWorkload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	trace := *flagTrace != 0
	s := summary{
		Workload: w.name, Seed: *flagSeed, Seconds: *flagSeconds, Trace: *flagTrace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		WarmupIters: warmup, ItersPerRound: w.iters[scalePaper],
	}

	// Closed loop, one process: rounds follow one another until their
	// measured spans add up to -seconds. A traced run alternates
	// untraced and traced rounds, so the tracing overhead is the
	// difference between rounds of one process.
	var plain, traced []round
	var spans *tracer
	budget := int64(*flagSeconds * float64(time.Second))
	for i, measuredNS := 0, int64(0); ; i++ {
		isTraced := trace && i%2 == 1
		r, tr := runRound(w, scalePaper, *flagSeed, isTraced)
		s.Rounds++
		s.OpsAttempted += r.iters
		if r.err != nil {
			// None of a failed round's iterations has a checked output.
			s.OpsFailed += r.iters
			s.Error = r.err.Error()
			break
		}
		if isTraced {
			traced, spans = append(traced, r), tr
		} else {
			plain = append(plain, r)
		}
		measuredNS += r.wallNS
		if measuredNS >= budget && (!trace || isTraced) {
			break
		}
	}
	s.Correct = s.OpsFailed == 0
	s.FailShare = float64(s.OpsFailed) / float64(s.OpsAttempted)

	var vals map[string]float64
	if trace {
		vals, s.Notes = perLayerValues(traced, plain, ladder{div: 1}.run())
	} else {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		vals = endToEndValues(plain, ms.HeapSys)
	}
	names, metrics, err := withUnits(trace, vals)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	s.Metrics = metrics

	if err := writeOutputs(&s, spans); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := printRun(os.Stdout, &s, names); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !s.Correct {
		return 1
	}
	return 0
}

// writeOutputs writes the run's summary and, for a traced run, the last
// traced round's spans, under out/ unless -out says otherwise.
func writeOutputs(s *summary, spans *tracer) error {
	mode := "e2e"
	if s.Trace != 0 {
		mode = "layers"
	}
	path := *flagOut
	if path == "" {
		path = filepath.Join("out", s.Workload+"."+mode+".summary.json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if spans == nil {
		return nil
	}
	if err := os.MkdirAll("out", 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join("out", s.Workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := spans.writeSpans(f, s.Workload, s.Seed); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
