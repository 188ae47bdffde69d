package spire_test

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestConfigFieldsHaveSetters fails on an exported field of an exported
// …Config struct under internal/ that no non-test code outside the
// field's package sets; benchmark/, cmd/ and examples/ count as setters.
// A setter is a composite-literal key (of the struct's type, or of an
// elided type), an x.F = assignment, or an &x.F passed to a call such as
// a flag binder. The selector forms match by field name, as
// TestExportsHaveCallers matches methods, so the check errs toward
// passing. A value no deployment sets is a constant; fields kept on
// purpose — test seams and knobs an open roadmap item owns — are listed
// with their reason in testdata/config_allowlist.txt.
func TestConfigFieldsHaveSetters(t *testing.T) {
	files := parseModule(t)

	// Every setter, with the package it sits in: typed composite-literal
	// keys per struct ("pkg/path.Type"), and elided-type keys, assignments
	// and address-of call arguments per field name.
	typed := map[string]map[string][]string{} // struct → field → setting packages
	named := map[string][]string{}            // field → setting packages
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var typ string
				switch x := n.Type.(type) {
				case *ast.Ident:
					typ = f.dir + "." + x.Name
				case *ast.SelectorExpr:
					if pkg, ok := x.X.(*ast.Ident); ok && f.imports[pkg.Name] != "" {
						typ = f.imports[pkg.Name] + "." + x.Sel.Name
					}
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					switch {
					case n.Type == nil:
						named[key.Name] = append(named[key.Name], f.dir)
					case typ != "":
						if typed[typ] == nil {
							typed[typ] = map[string][]string{}
						}
						typed[typ][key.Name] = append(typed[typ][key.Name], f.dir)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						named[sel.Sel.Name] = append(named[sel.Sel.Name], f.dir)
					}
				}
			case *ast.CallExpr:
				for _, arg := range n.Args {
					if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
						if sel, ok := u.X.(*ast.SelectorExpr); ok {
							named[sel.Sel.Name] = append(named[sel.Sel.Name], f.dir)
						}
					}
				}
			}
			return true
		})
	}

	allowed := readAllowlist(t, filepath.Join("testdata", "config_allowlist.txt"))
	var unset []string
	for _, f := range files {
		if !strings.HasPrefix(f.dir, module+"/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			gen, ok := d.(*ast.GenDecl)
			if !ok || gen.Tok != token.TYPE {
				continue
			}
			for _, spec := range gen.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Config") {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if !name.IsExported() {
							continue
						}
						key := strings.TrimPrefix(f.dir, module+"/internal/") + "." + ts.Name.Name + "." + name.Name
						outside := func(dir string) bool { return dir != f.dir }
						set := slices.ContainsFunc(typed[f.dir+"."+ts.Name.Name][name.Name], outside) ||
							slices.ContainsFunc(named[name.Name], outside)
						if _, ok := allowed[key]; ok {
							delete(allowed, key)
							if set {
								t.Errorf("testdata/config_allowlist.txt lists %s, which is set outside its package: remove the line", key)
							}
						} else if !set {
							unset = append(unset, key)
						}
					}
				}
			}
		}
	}
	slices.Sort(unset)
	for _, key := range unset {
		t.Errorf("%s is never set outside its package: make it a constant, give it a deployment, "+
			"or list it in testdata/config_allowlist.txt with the item that owns it", key)
	}
	for key := range allowed {
		t.Errorf("testdata/config_allowlist.txt lists %s, which is not an exported …Config field", key)
	}
}
