package spire_test

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
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
// internal/ that no non-test code references outside its own
// declaration; benchmark/, cmd/ and examples/ count as callers. The
// module is type-checked, so a reference is a use that resolves to the
// declared func: a method of a generic type counts through its origin,
// and a method of another type that shares the name does not. A method
// that satisfies an interface is skipped, since it is called through
// the interface. Exports kept on purpose — test-only helpers an open
// roadmap item owns — are listed with their reason in
// testdata/exports_allowlist.txt.
func TestExportsHaveCallers(t *testing.T) {
	files := parseModule(t)
	pkgs := typeCheck(t, files)

	// Every use of a func, outside test files, by origin.
	uses := map[*types.Func][]token.Pos{}
	ifaces := map[string][]*types.Interface{} // method name → interfaces declaring it
	known := map[*types.Interface]bool{}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && !known[it] {
			known[it] = true
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				uses[fn.Origin()] = append(uses[fn.Origin()], id.Pos())
			}
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
	}
	seen := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			scan(imp)
		}
	}
	for _, p := range pkgs {
		scan(p.types)
	}
	satisfies := func(fn *types.Func) bool {
		// The pointer's method set holds every method of the type.
		recv := fn.Type().(*types.Signature).Recv().Type()
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(recv, it) {
				return true
			}
		}
		return false
	}

	allowed := readAllowlist(t, filepath.Join("testdata", "exports_allowlist.txt"))
	var missing []string
	for _, f := range files {
		if !strings.HasPrefix(f.dir, module+"/internal/") {
			continue
		}
		info := pkgs[f.dir].info
		for _, d := range f.ast.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || !decl.Name.IsExported() {
				continue
			}
			fn := info.Defs[decl.Name].(*types.Func)
			key := strings.TrimPrefix(f.dir, module+"/internal/") + "." + decl.Name.Name
			if decl.Recv != nil {
				key = strings.TrimPrefix(f.dir, module+"/internal/") + "." + recvName(decl.Recv) + "." + decl.Name.Name
			}
			called := slices.ContainsFunc(uses[fn], func(p token.Pos) bool {
				return p < decl.Pos() || p >= decl.End()
			})
			if _, ok := allowed[key]; ok {
				delete(allowed, key)
				if called {
					t.Errorf("testdata/exports_allowlist.txt lists %s, which has a caller in non-test code: remove the line", key)
				}
				continue
			}
			if decl.Recv != nil && satisfies(fn) {
				continue
			}
			if !called {
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

// checkedPackage is one type-checked package of the module.
type checkedPackage struct {
	types *types.Package
	info  *types.Info
}

// typeCheck type-checks every package of the module from the parsed
// files, importing the standard library from source.
func typeCheck(t *testing.T, files []goFile) map[string]*checkedPackage {
	t.Helper()
	byDir := map[string][]*ast.File{}
	for _, f := range files {
		byDir[f.dir] = append(byDir[f.dir], f.ast)
	}
	pkgs := map[string]*checkedPackage{}
	std := importer.ForCompiler(moduleFset, "source", nil).(types.ImporterFrom)
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if byDir[p] == nil {
			return std.ImportFrom(p, ".", 0)
		}
		if c := pkgs[p]; c != nil {
			return c.types, nil
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p, moduleFset, byDir[p], info)
		if err != nil {
			return nil, err
		}
		pkgs[p] = &checkedPackage{tp, info}
		return tp, nil
	}
	for dir := range byDir {
		if _, err := imp(dir); err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// importerFunc adapts a func to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// module is the module path in go.mod.
const module = "spire"

// goFile is one parsed non-test Go file of the module.
type goFile struct {
	dir     string // package import path
	ast     *ast.File
	imports map[string]string // local name → import path
}

// moduleFset holds the positions of every file parseModule parses.
var moduleFset = token.NewFileSet()

// parseModule parses every non-test Go file of the module, skipping
// testdata and hidden directories.
func parseModule(t *testing.T) []goFile {
	t.Helper()
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
		f, err := parser.ParseFile(moduleFset, p, nil, parser.SkipObjectResolution)
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
