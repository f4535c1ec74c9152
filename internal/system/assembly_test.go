package system

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestNoSecondAssembly: NewSystem is the one place a run is assembled —
// cluster, engine, hook order, tracker arm-up and prefetch predictor — so
// no non-test file outside this package and internal/threads may call
// threads.NewEngine. A run built beside it would drift from the one that
// ships (the hook order is the easiest thing to get wrong).
func TestNoSecondAssembly(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	parsed := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel := filepath.ToSlash(rel); {
			case rel == "internal/system", rel == "internal/threads", d.Name() == "testdata",
				rel != "." && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		parsed++
		threadsName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "actdsm/internal/threads" {
				threadsName = "threads"
				if imp.Name != nil {
					threadsName = imp.Name.Name
				}
			}
		}
		if threadsName == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "NewEngine" {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == threadsName {
				t.Errorf("%s: threads.NewEngine outside internal/system: build the run with system.NewSystem", fset.Position(sel.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 50 {
		t.Fatalf("parsed only %d source files under %s", parsed, root)
	}
}
