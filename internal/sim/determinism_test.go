package sim

// TestNoAmbientNondeterminism pins the repo's determinism rule: every
// randomized decision must flow from this package's seeded RNG, and no
// simulation or protocol code may consult the wall clock. Identical
// (seed, config) inputs must produce identical runs — the property the
// coherence checker's replayable trials (internal/check) and the paper
// experiments both depend on.
//
// Concretely:
//
//   - math/rand and math/rand/v2 are banned everywhere, tests included:
//     their global state leaks across tests and their streams are not
//     splittable the way NewRNG/Split is.
//   - Wall-clock reads (time.Now, time.Since, timers, sleeps) are banned
//     outside a short allowlist of measurement-only call sites: the
//     transport's latency stats, retry backoff, and chaos delays; the
//     cluster's latency accounting; and elapsed-time reporting in the
//     benchmark and checker drivers. None of those feed back into
//     protocol decisions. Test files are exempt (timing a test is
//     harmless).
//
// Moving a wall-clock read into new code means either deriving it from
// the simulation instead, or consciously extending the allowlist here
// with a comment defending why the value never influences protocol
// behaviour.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wallClockAllowed lists the files (slash-separated, repo-relative)
// permitted to read the wall clock. Measurement only — never decisions.
var wallClockAllowed = map[string]bool{
	"cmd/actbench/main.go":          true, // section elapsed-time banner
	"internal/check/explore.go":     true, // TrialResult.Elapsed / SweepResult.Elapsed
	"internal/dsm/cluster.go":       true, // per-message latency quantiles and the probe's per-call wall latency
	"internal/obs/obs.go":           true, // recorder start anchor + transport-span end stamps; export-only, never protocol input
	"internal/transport/chaos.go":   true, // injected FaultDelay sleeps
	"internal/transport/mux.go":     true, // pooled CallTimeout timers; a timeout only poisons the conn for redial, never steers the protocol
	"internal/transport/options.go": true, // backoff sleep between retries
}

// wallClockFuncs are the time-package functions that observe or depend on
// real time. time.Duration arithmetic and constants stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

func TestNoAmbientNondeterminism(t *testing.T) {
	root := repoRoot(t)
	fset := token.NewFileSet()
	var violations []string

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel := filepath.ToSlash(mustRel(t, root, path))
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}

		importsTime := false
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "math/rand", "math/rand/v2":
				violations = append(violations,
					rel+": imports "+imp.Path.Value+" (use internal/sim.NewRNG)")
			case "time":
				importsTime = true
			}
		}

		isTest := strings.HasSuffix(path, "_test.go")
		if !importsTime || isTest || wallClockAllowed[rel] {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || id.Name != "time" || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			violations = append(violations, rel+": calls time."+sel.Sel.Name+
				" outside the wall-clock allowlist")
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
	if t.Failed() {
		t.Log("determinism rule: seed all randomness through internal/sim; " +
			"wall-clock reads need an allowlist entry in determinism_test.go")
	}
}

// TestAllowlistIsCurrent keeps wallClockAllowed honest: every entry must
// still exist and still read the clock, so stale entries cannot mask a
// future violation elsewhere in the same file path.
func TestAllowlistIsCurrent(t *testing.T) {
	root := repoRoot(t)
	for rel := range wallClockAllowed {
		path := filepath.Join(root, filepath.FromSlash(rel))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("allowlist entry %s: %v (remove it?)", rel, err)
			continue
		}
		found := false
		for fn := range wallClockFuncs {
			if strings.Contains(string(data), "time."+fn+"(") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("allowlist entry %s no longer reads the wall clock; remove it", rel)
		}
	}
}

// repoRoot walks up from the package directory to the go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above package directory")
		}
		dir = parent
	}
}

func mustRel(t *testing.T, base, path string) string {
	t.Helper()
	rel, err := filepath.Rel(base, path)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}
