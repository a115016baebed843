package obs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// forHumans are the kinds no program keys on. They narrate a timeline for a
// person reading a trace: wacktrace's merged timeline, a flight bundle's
// trace.ndjson, /debug/events, a wacksim -trace file.
var forHumans = []string{
	"KindHeartbeatMiss", "KindFormRing", "KindRecoverEnter",
	"KindViewChange", "KindStateCast", "KindStateRecv", "KindRunEnter",
	"KindAnnounce", "KindBalanceCast", "KindBalanceApply",
	"KindARPSpoof", "KindFrameDrop", "KindRestore",
	"KindInvariantViolation", "KindPhiSuspect", "KindPhiClear",
}

// TestEveryKindHasAReader is a census of the event kinds: it maps each Kind
// to the non-test code that reads it, a comparison or a switch case, and
// fails for a kind nobody reads unless forHumans names it. A kind on that
// list that has gained a reader fails too, so the list stays true. A kind
// that is neither read nor wanted by a person should stop being emitted.
func TestEveryKindHasAReader(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "obs.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string][]string{} // every declared kind, with where it is read
	for _, d := range f.Decls {
		if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.CONST {
			for _, spec := range g.Specs {
				for _, n := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(n.Name, "Kind") {
						readers[n.Name] = nil
					}
				}
			}
		}
	}
	if len(readers) == 0 {
		t.Fatal("vacuous: found no Kind constants in obs.go")
	}

	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench is a module of its own; testdata is fixtures.
			if path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		inObs := file.Name.Name == "obs"
		// kindOf names the obs.Kind constant x is, "" if it is none.
		kindOf := func(x ast.Expr) string {
			switch x := x.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && pkg.Name == "obs" {
					return x.Sel.Name
				}
			case *ast.Ident:
				if inObs {
					return x.Name
				}
			}
			return ""
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv != nil && inObs {
				if id, ok := fn.Recv.List[0].Type.(*ast.Ident); ok && id.Name == "Kind" {
					continue // Kind's own methods name every kind; they read none
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				var operands []ast.Expr
				switch n := n.(type) {
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						operands = []ast.Expr{n.X, n.Y}
					}
				case *ast.CaseClause:
					operands = n.List
				}
				for _, x := range operands {
					if k := kindOf(x); k != "" {
						if sites, declared := readers[k]; declared {
							p := fset.Position(x.Pos())
							rel, _ := filepath.Rel(root, p.Filename)
							readers[k] = append(sites, fmt.Sprintf("%s:%d", filepath.ToSlash(rel), p.Line))
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	kinds := make([]string, 0, len(readers))
	for k := range readers {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		sites, human := readers[k], slices.Contains(forHumans, k)
		switch {
		case len(sites) > 0 && human:
			t.Errorf("%s is read by %v: take it off forHumans", k, sites)
		case len(sites) > 0:
			t.Logf("%-24s read by %s", k, strings.Join(sites, ", "))
		case !human:
			t.Errorf("%s has no reader and is not for humans: stop emitting it, or say who reads it", k)
		}
	}
	for _, k := range forHumans {
		if _, declared := readers[k]; !declared {
			t.Errorf("forHumans names %s, which obs.go does not declare", k)
		}
	}
}
