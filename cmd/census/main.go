// Census counts the exported surface that no program uses. It type-checks
// the non-test Go files of both modules (the root module and the nested
// bench module) and prints two counts:
//
//   - exported names declared in internal/* with no reference from a
//     non-test file of another package. Methods of unexported types are
//     skipped, and so are methods that satisfy an interface the program
//     refers to, or that the standard library calls by name (String, Error,
//     JSON and text marshalling, ServeHTTP).
//   - exported fields of exported *Config and *Options structs in the root
//     module with no non-test writer outside their package. A write is a
//     keyed or positional composite-literal element, the left-hand side of
//     an assignment or increment (any field along a selector chain), or an
//     address taken with &.
//
// Run it from the repository root (or `make census`):
//
//	go run ./cmd/census        # the two counts
//	go run ./cmd/census -v     # and every name counted
//
// `go test ./cmd/census` holds the repository to the keep-list in
// main_test.go: every name and field counted must be on it, with a reason,
// and every entry on it must still be counted.
//
// It uses only the standard library: go/types with the source importer for
// the standard library, and its own loader for the two modules' packages.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// module is one Go module of the repository: its path and its root directory.
type module struct{ path, dir string }

var modules = []module{{"wackamole", "."}, {"wackamole/bench", "bench"}}

// pkg is one type-checked package: its non-test files only.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

type loader struct {
	fset  *token.FileSet
	dirs  map[string]*build.Package // the two modules' packages by import path
	pkgs  map[string]*pkg
	std   types.Importer
	order []*pkg
}

// knownByName are methods the standard library calls through an interface
// it declares (fmt, errors, encoding/json, encoding, net/http).
var knownByName = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true, "GoString": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	flags := flag.NewFlagSet("census", flag.ContinueOnError)
	flags.SetOutput(errOut)
	verbose := flags.Bool("v", false, "list every name counted")
	if err := flags.Parse(args); err != nil {
		return 2
	}

	names, fields, err := count(".")
	if err != nil {
		fmt.Fprintln(errOut, "census:", err)
		return 1
	}
	fmt.Fprintf(out, "exported internal/* names with no non-test caller outside their package: %d\n", len(names))
	fmt.Fprintf(out, "exported Config/Options fields with no non-test writer outside their package: %d\n", len(fields))
	if *verbose {
		fmt.Fprintln(out, "\nnames:")
		for _, n := range names {
			fmt.Fprintln(out, "  "+n)
		}
		fmt.Fprintln(out, "\nfields:")
		for _, f := range fields {
			fmt.Fprintln(out, "  "+f)
		}
	}
	return 0
}

// count type-checks the two modules of the repository rooted at root and
// returns the names and the fields the census counts, sorted.
func count(root string) (names, fields []string, err error) {
	l := &loader{
		fset: token.NewFileSet(),
		dirs: map[string]*build.Package{},
		pkgs: map[string]*pkg{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.discover(root); err != nil {
		return nil, nil, err
	}
	for p := range l.dirs {
		if _, err := l.load(p); err != nil {
			return nil, nil, err
		}
	}
	return l.unreferencedNames(), l.unwrittenFields(), nil
}

// discover maps every package of the two modules to its import path,
// skipping testdata and, in the root module's walk, the bench module.
func (l *loader) discover(root string) error {
	bench := filepath.Join(root, "bench")
	for _, m := range modules {
		dir := filepath.Join(root, m.dir)
		err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := d.Name()
			if p != dir && (base == "testdata" || base[0] == '.' || base[0] == '_' || p == bench) {
				return filepath.SkipDir
			}
			bp, err := build.ImportDir(p, 0)
			if err != nil || len(bp.GoFiles) == 0 {
				return nil
			}
			rel, _ := filepath.Rel(dir, p)
			ip := m.path
			if rel != "." {
				ip += "/" + filepath.ToSlash(rel)
			}
			l.dirs[ip] = bp
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Import resolves the two modules' packages through the loader and
// everything else through the standard library's source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		p, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	bp := l.dirs[path]
	p := &pkg{path: path}
	l.pkgs[path] = p
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p.types = tp
	l.order = append(l.order, p)
	return p, nil
}

// unreferencedNames lists exported internal/* names with no reference from
// another package's non-test files.
func (l *loader) unreferencedNames() []string {
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	for _, p := range l.order {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.types {
				used[obj] = true
			}
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
			// A type is used where another package handles a value of it,
			// even without naming it.
			if n := namedIn(tv.Type); n != nil && n.Obj().Pkg() != p.types {
				used[n.Obj()] = true
			}
		}
	}

	var out []string
	for _, p := range l.order {
		short, ok := strings.CutPrefix(p.path, "wackamole/internal/")
		if !ok {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				out = append(out, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() || used[m] || knownByName[m.Name()] || satisfies(named, m.Name(), ifaces) {
					continue
				}
				out = append(out, short+"."+name+"."+m.Name())
			}
		}
	}
	sort.Strings(out)
	return out
}

// satisfies reports whether *T implements an interface the program refers
// to that declares a method of this name.
func satisfies(t *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, nil, method); m != nil && types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// namedIn returns the named type a value of type t carries, looking
// through pointers, slices, arrays, maps and channels.
func namedIn(t types.Type) *types.Named {
	for {
		switch x := t.(type) {
		case *types.Named:
			return x.Origin()
		case *types.Pointer:
			t = x.Elem()
		case *types.Slice:
			t = x.Elem()
		case *types.Array:
			t = x.Elem()
		case *types.Map:
			t = x.Elem()
		case *types.Chan:
			t = x.Elem()
		default:
			return nil
		}
	}
}

// unwrittenFields lists exported fields of exported *Config/*Options
// structs in the root module with no write from another package's non-test
// files.
func (l *loader) unwrittenFields() []string {
	written := map[types.Object]bool{}
	for _, p := range l.order {
		mark := func(v types.Object) {
			if v != nil && v.Pkg() != nil && v.Pkg() != p.types {
				written[v] = true
			}
		}
		// lhs marks every field selected along an assigned expression:
		// writing a.B.C writes both B and C.
		var lhs func(e ast.Expr)
		lhs = func(e ast.Expr) {
			switch x := e.(type) {
			case *ast.ParenExpr:
				lhs(x.X)
			case *ast.SelectorExpr:
				if sel := p.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					mark(sel.Obj())
				}
				lhs(x.X)
			case *ast.IndexExpr:
				lhs(x.X)
			case *ast.StarExpr:
				lhs(x.X)
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, e := range x.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(x.X)
				case *ast.UnaryExpr:
					if x.Op == token.AND {
						lhs(x.X)
					}
				case *ast.CompositeLit:
					t := p.info.Types[x].Type
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(p.info.Uses[id])
							}
						} else if i < st.NumFields() {
							mark(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}

	var out []string
	for _, p := range l.order {
		short, ok := strings.CutPrefix(p.path, "wackamole/internal/")
		if p.path == "wackamole" {
			short, ok = p.path, true
		}
		if !ok {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !written[f] {
					out = append(out, short+"."+name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
