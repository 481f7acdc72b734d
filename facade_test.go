package reskit_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers keeps two APIs honest: every name they
// export must be used somewhere else in the module. A name counts as used
// when a Go file outside the package's non-test files selects it as
// pkg.X.
//
//   - The root facade: e2ebench, a module of its own, does not count as a
//     caller, and a name also counts as used when another exported root
//     function mentions it as a parameter or result type.
//   - internal/sim: e2ebench counts as a caller, because the sim names it
//     calls are frozen with it.
//
// A name that nothing uses is API surface without a caller: delete it,
// unexport it, or give it a caller.
func TestFacadeNamesHaveCallers(t *testing.T) {
	for _, pkg := range []struct {
		dir, path      string
		withSignatures bool // exported function signatures count as uses
		withE2E        bool // e2ebench counts as a caller
	}{
		{".", "reskit", true, false},
		{"internal/sim", "reskit/internal/sim", false, true},
	} {
		unused := unusedExports(t, pkg.dir, pkg.path, pkg.withSignatures, pkg.withE2E)
		if len(unused) > 0 {
			t.Errorf("%d exported names of %s have no caller in the module:\n  %s",
				len(unused), pkg.path, strings.Join(unused, "\n  "))
		}
	}
}

// unusedExports returns the exported top-level names of the package in
// dir (import path path) that no Go file outside the package's non-test
// files selects.
func unusedExports(t *testing.T, dir, path string, withSignatures, withE2E bool) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[filepath.Base(path)]
	if pkg == nil {
		t.Fatalf("no package %s in %s", path, dir)
	}
	exported := map[string]bool{}
	used := map[string]bool{}
	markTypes := func(fields *ast.FieldList) {
		if fields == nil || !withSignatures {
			return
		}
		for _, f := range fields.List {
			ast.Inspect(f.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
		}
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					exported[d.Name.Name] = true
					markTypes(d.Type.Params)
					markTypes(d.Type.Results)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							exported[s.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								exported[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(exported) == 0 {
		t.Fatalf("%s exports nothing", path)
	}

	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != "." && ((name == "e2ebench" && !withE2E) || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || (filepath.Dir(p) == filepath.Clean(dir) && !strings.HasSuffix(p, "_test.go")) {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if ip, _ := strconv.Unquote(imp.Path.Value); ip == path {
				local = filepath.Base(path)
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var unused []string
	for name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	return unused
}
