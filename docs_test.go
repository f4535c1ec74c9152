package actdsm_test

// Markdown link checker for the top-level documentation set. The docs
// cross-reference each other heavily (README → ARCHITECTURE → DESIGN →
// EXPERIMENTS), and a renamed heading or file silently breaks those
// links; this test fails the lint gate instead. It checks every inline
// [text](target) link whose target is relative: the file must exist,
// and an #anchor must match a heading slug (GitHub's slugging rules) in
// the target file. External http(s)/mailto links are not fetched.

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"actdsm"
	"actdsm/internal/dsm"
	"actdsm/internal/msg"
)

// checkedDocs is the documentation set under link checking.
var checkedDocs = []string{
	"README.md",
	"DESIGN.md",
	"ARCHITECTURE.md",
	"EXPERIMENTS.md",
}

var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// stripFences removes fenced code blocks so links and headings inside
// example output are not parsed.
func stripFences(lines []string) []string {
	var out []string
	inFence := false
	for _, ln := range lines {
		if strings.HasPrefix(strings.TrimSpace(ln), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			out = append(out, ln)
		}
	}
	return out
}

// slugify reproduces GitHub's heading-anchor slugs: lowercase, spaces to
// hyphens, everything else non-alphanumeric (except hyphen/underscore)
// dropped.
func slugify(heading string) string {
	heading = strings.TrimSpace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf collects the heading slugs of a markdown file.
func anchorsOf(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	anchors := map[string]bool{}
	for _, ln := range stripFences(strings.Split(string(data), "\n")) {
		trimmed := strings.TrimLeft(ln, " ")
		if !strings.HasPrefix(trimmed, "#") {
			continue
		}
		heading := strings.TrimLeft(trimmed, "#")
		if heading == trimmed { // no # prefix consumed
			continue
		}
		anchors[slugify(heading)] = true
	}
	return anchors
}

func TestDocLinks(t *testing.T) {
	anchorCache := map[string]map[string]bool{}
	for _, doc := range checkedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("documentation file missing: %v", err)
		}
		body := strings.Join(stripFences(strings.Split(string(data), "\n")), "\n")
		for _, m := range linkRE.FindAllStringSubmatch(body, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			file, anchor, _ := strings.Cut(target, "#")
			// Resolve the file part. An empty file part is a same-file
			// anchor.
			resolved := doc
			if file != "" {
				resolved = filepath.Clean(filepath.Join(filepath.Dir(doc), file))
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", doc, target, err)
					continue
				}
			}
			if anchor == "" {
				continue
			}
			if !strings.HasSuffix(resolved, ".md") {
				continue // anchors into non-markdown files are not checked
			}
			if anchorCache[resolved] == nil {
				anchorCache[resolved] = anchorsOf(t, resolved)
			}
			if !anchorCache[resolved][anchor] {
				t.Errorf("%s: link %q: no heading with anchor #%s in %s",
					doc, target, anchor, resolved)
			}
		}
	}
}

// citedPathRE matches a backticked source path: a package directory, a
// file under internal/ or cmd/, optionally with a :line suffix. Globs and
// command lines (a `*` or a space inside the backticks) do not match.
var citedPathRE = regexp.MustCompile("`((?:internal|cmd)/[^`\\s*:]+)(?::\\d+)?`")

// TestDocsCiteExistingPaths fails on a source path DESIGN.md or
// ARCHITECTURE.md cites that is not in the tree, so a deleted or renamed
// file cannot leave its description behind.
func TestDocsCiteExistingPaths(t *testing.T) {
	for _, doc := range []string{"DESIGN.md", "ARCHITECTURE.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citedPathRE.FindAllStringSubmatch(string(data), -1) {
			if _, err := os.Stat(m[1]); err != nil {
				t.Errorf("%s cites %s, which does not exist", doc, m[1])
			}
		}
	}
}

var laneRowRE = regexp.MustCompile("(?m)^\\| `(\\w+)` \\| `(BENCH_\\w+\\.json)` \\|")

// TestLanesTableMatchesRegistry keeps EXPERIMENTS.md's lane table equal
// to the registry actbench drives: same lanes, same artifacts, same
// order.
func TestLanesTableMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := laneRowRE.FindAllStringSubmatch(string(data), -1)
	lanes := actdsm.BenchLanes()
	if len(rows) != len(lanes) {
		t.Fatalf("EXPERIMENTS.md lists %d lanes, the registry has %d", len(rows), len(lanes))
	}
	for i, lane := range lanes {
		if rows[i][1] != lane.Name || rows[i][2] != lane.Artifact {
			t.Errorf("row %d is %s / %s, registry has %s / %s",
				i, rows[i][1], rows[i][2], lane.Name, lane.Artifact)
		}
	}
}

// TestDesignNamesConfigAndKinds keeps DESIGN.md describing the whole
// protocol surface: every dsm.Config field, every msg.Kind and every
// dsm.CounterSet counter must be named, as a whole word, somewhere in it —
// where the text by layer says what the knob or the message does, and the
// counters table (§9.4) what the counter counts. A knob, message or
// counter added without a word of design fails here.
func TestDesignNamesConfigAndKinds(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	named := func(name string) bool {
		return regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).Match(data)
	}
	cfg := reflect.TypeOf(dsm.Config{})
	for i := 0; i < cfg.NumField(); i++ {
		if f := cfg.Field(i); f.IsExported() && !named(f.Name) {
			t.Errorf("DESIGN.md never names dsm.Config.%s", f.Name)
		}
	}
	for k := msg.Kind(0); int(k) < msg.KindCount; k++ {
		if k.Valid() && !named(k.String()) {
			t.Errorf("DESIGN.md never names the %s message", k)
		}
	}
	counters := reflect.TypeOf(dsm.CounterSet[int64]{})
	for i := 0; i < counters.NumField(); i++ {
		if f := counters.Field(i); !named(f.Name) {
			t.Errorf("DESIGN.md never names the dsm.CounterSet counter %s", f.Name)
		}
	}
}
