package spire_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestExportsHaveCallers fails on an exported func or method under
// internal/ that no non-test code references outside its declaration;
// benchmark/, cmd/ and examples/ count as callers. A package-level func
// is referenced by a bare use in its own package or a qualified use
// through an import of it; a method by any selector of its name, so the
// check is by name and errs toward passing. Exports kept on purpose —
// interface methods, test-only helpers an open roadmap item owns — are
// listed with their reason in testdata/exports_allowlist.txt.
func TestExportsHaveCallers(t *testing.T) {
	files := parseModule(t)

	// Every use: bare identifiers per package, qualified ones per
	// imported package, and method-like selectors by name.
	bare := map[string]map[string]int{} // package → name → uses
	qualified := map[string]map[string]int{}
	selected := map[string]int{}
	count := func(m map[string]map[string]int, pkg, name string) {
		if m[pkg] == nil {
			m[pkg] = map[string]int{}
		}
		m[pkg][name]++
	}
	for _, f := range files {
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && f.imports[x.Name] != "" {
					count(qualified, f.imports[x.Name], n.Sel.Name)
					return false
				}
				selected[n.Sel.Name]++
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				count(bare, f.dir, n.Name)
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	allowed := readAllowlist(t, filepath.Join("testdata", "exports_allowlist.txt"))
	var missing []string
	for _, f := range files {
		if !strings.HasPrefix(f.dir, module+"/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			name, key := fn.Name.Name, strings.TrimPrefix(f.dir, module+"/internal/")+"."+fn.Name.Name
			var uses int
			if fn.Recv != nil {
				key = strings.TrimPrefix(f.dir, module+"/internal/") + "." + recvName(fn.Recv) + "." + name
				uses = selected[name] + bare[f.dir][name] - 1
			} else {
				uses = qualified[f.dir][name] + bare[f.dir][name] - 1
			}
			if _, ok := allowed[key]; ok {
				delete(allowed, key)
				continue
			}
			if uses == 0 {
				missing = append(missing, key)
			}
		}
	}
	slices.Sort(missing)
	for _, key := range missing {
		t.Errorf("%s is exported but has no caller in non-test code: give it one, unexport it, delete it, "+
			"or list it in testdata/exports_allowlist.txt with the item that owns it", key)
	}
	for key := range allowed {
		t.Errorf("testdata/exports_allowlist.txt lists %s, which is not an exported func or method", key)
	}
}

// module is the module path in go.mod.
const module = "spire"

// goFile is one parsed non-test Go file of the module.
type goFile struct {
	dir     string // package import path
	ast     *ast.File
	imports map[string]string // local name → import path
}

// parseModule parses every non-test Go file of the module, skipping
// testdata and hidden directories.
func parseModule(t *testing.T) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || (p != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(ip)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = ip
		}
		files = append(files, goFile{path.Join(module, filepath.ToSlash(filepath.Dir(p))), f, imports})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recvName returns the type name of a method receiver.
func recvName(recv *ast.FieldList) string {
	x := recv.List[0].Type
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	return x.(*ast.Ident).Name
}

// readAllowlist reads "pkg.Func" or "pkg.Type.Method" keys, one per line
// before an optional "#" reason.
func readAllowlist(t *testing.T, name string) map[string]bool {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	keys := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, _, _ := strings.Cut(sc.Text(), "#"); strings.TrimSpace(key) != "" {
			keys[strings.TrimSpace(key)] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}
