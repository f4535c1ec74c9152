package check

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMutationPatches keeps the checker's planted bugs usable. Each patch
// under testdata/mutations (run by `make check-mutations`, which requires
// its checks to fail as its header expects) must have a well-formed
// header, touch only files that exist, and still apply to the tree, so a
// patch that drifted from the code fails here and not only when the
// mutations run.
func TestMutationPatches(t *testing.T) {
	patches, err := filepath.Glob("testdata/mutations/*.patch")
	if err != nil {
		t.Fatal(err)
	}
	if len(patches) < 14 {
		t.Fatalf("%d mutation patches, want at least 14", len(patches))
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	_, gitErr := exec.LookPath("git")
	for _, path := range patches {
		name := strings.TrimSuffix(filepath.Base(path), ".patch")
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range checkPatchHeader(t, name, string(data)) {
				if _, err := os.Stat(filepath.Join(root, f)); err != nil {
					t.Errorf("touches %s: %v", f, err)
				}
			}
			if gitErr != nil {
				t.Skipf("git apply --check: %v", gitErr)
			}
			abs, err := filepath.Abs(path)
			if err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("git", "apply", "--check", abs)
			cmd.Dir = root
			// As in run.sh: the patch's paths are relative to the module
			// root even when the module sits inside another repository.
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("does not apply to the tree: %v\n%s", err, out)
			}
		})
	}
}

// checkPatchHeader holds a patch to the header format run.sh reads and
// returns the files the patch changes.
func checkPatchHeader(t *testing.T, name, patch string) (files []string) {
	t.Helper()
	var mutation string
	checks, pending, inDiff := 0, 0, false
	for _, line := range strings.Split(patch, "\n") {
		if strings.HasPrefix(line, "diff --git ") {
			inDiff = true
		}
		if inDiff {
			if f, ok := strings.CutPrefix(line, "--- a/"); ok {
				files = append(files, f)
			}
			continue
		}
		key, val, _ := strings.Cut(line, ": ")
		switch key {
		case "# mutation":
			mutation = val
		case "# why":
		case "# check":
			checks++
			pending++
		case "# expect":
			if pending == 0 {
				t.Errorf("expect %q has no check before it", val)
			}
			if _, err := regexp.Compile(val); err != nil {
				t.Errorf("expect %q: %v", val, err)
			}
			pending = 0
		default:
			t.Errorf("header line %q: want # mutation, why, check or expect", line)
		}
	}
	if mutation != name {
		t.Errorf("# mutation: %q, want the file name %q", mutation, name)
	}
	if checks == 0 {
		t.Error("no # check line")
	}
	if pending > 0 {
		t.Errorf("%d check lines with no # expect after them", pending)
	}
	if len(files) == 0 {
		t.Error("changes no file")
	}
	return files
}
