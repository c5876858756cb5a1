//go:build reach

package slicing_test

// TestReachability, the dead-code gate of `make lint`, type-checks this
// module and benchmark/ and walks resolved references, not names, from each
// main and init func, package-level var initializer and exported name of
// the root facade. It keeps a method of a reached type whose name is a
// method of an interface written in the program or of implicitMethods. An
// unreached declaration outside benchmark/ fails unless listed in
// testdata/unreachable.allow, whose entries are roots and must be findings.
// It also fails on a struct field outside benchmark/ that non-test code
// writes but never reads: a selector on the left of =, op= or ++ and a
// key of a composite literal are writes, every other use a read, and an
// embedded field (its promoted fields and methods read it) or one with a
// json tag (encoding/json reads it) counts as read. Type-checking the standard library
// takes seconds, so tier-1 skips this.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const modPath = "github.com/gossipkit/slicing"

// implicitMethods are called through standard-library interfaces the program
// never writes down: fmt, encoding/json, net/http, io, sort, heap, errors.
var implicitMethods = strings.Fields(`String Error Format MarshalJSON UnmarshalJSON
	MarshalText UnmarshalText ServeHTTP Header Write WriteHeader Flush Read Close
	Len Less Swap Push Pop Unwrap Is`)

// reachChecker type-checks this module's packages and records their declarations.
type reachChecker struct {
	fset  *token.FileSet
	std   types.Importer
	info  types.Info // of every package of this module
	pkgs  map[string]*types.Package
	decls map[types.Object]ast.Node
	roots []types.Object
	files []*ast.File // of every package, benchmark/ included
}

func (c *reachChecker) Import(path string) (*types.Package, error) {
	if path != modPath && !strings.HasPrefix(path, modPath+"/") {
		return c.std.Import(path)
	}
	if p := c.pkgs[path]; p != nil {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, modPath)
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, len(bp.GoFiles))
	for i, name := range bp.GoFiles {
		if files[i], err = parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0); err != nil {
			return nil, err
		}
	}
	p, err := (&types.Config{Importer: c}).Check(path, c.fset, files, &c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	c.files = append(c.files, files...)
	declare := func(id *ast.Ident, node ast.Node, root bool) {
		if obj := c.info.Defs[id]; obj != nil && obj.Name() != "_" {
			c.decls[obj] = node
			if root || path == modPath && obj.Exported() {
				c.roots = append(c.roots, obj)
			}
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declare(fd.Name, fd, fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init"))
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare(s.Name, s, false)
				case *ast.ValueSpec:
					if len(s.Values) > 0 && d.(*ast.GenDecl).Tok == token.VAR { // runs, read or not
						init := types.NewVar(s.Pos(), p, "_", nil)
						c.decls[init], c.roots = s, append(c.roots, init)
					}
					for _, id := range s.Names {
						declare(id, s, false)
					}
				}
			}
		}
	}
	return p, nil
}

func TestReachability(t *testing.T) {
	build.Default.CgoEnabled = false // type-check net without running cgo
	fset := token.NewFileSet()
	c := &reachChecker{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*types.Package{},
		decls: map[types.Object]ast.Node{}, info: types.Info{Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		_, err = c.Import(strings.TrimSuffix(modPath+"/"+filepath.ToSlash(path), "/."))
		if _, noGo := err.(*build.NoGoError); noGo {
			return nil // no non-test Go file here
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	keep := map[string]bool{} // method names an interface may call
	for _, m := range implicitMethods {
		keep[m] = true
	}
	for _, tv := range c.info.Types {
		if iface, ok := tv.Type.(*types.Interface); ok { // a literal, named by a declaration or not
			for i := 0; i < iface.NumMethods(); i++ {
				keep[iface.Method(i).Name()] = true
			}
		}
	}
	reached := map[types.Object]bool{}
	var reach func(obj types.Object)
	reach = func(obj types.Object) {
		if reached[obj] || c.decls[obj] == nil {
			return
		}
		reached[obj] = true
		ast.Inspect(c.decls[obj], func(n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			switch use := c.info.Uses[id].(type) {
			case *types.Func: // a method of an instantiated type leads to its generic declaration
				reach(use.Origin())
			case types.Object:
				reach(use)
			}
			return true
		})
		if named, ok := obj.Type().(*types.Named); ok && named.Obj() == obj { // a type declaration
			for i := 0; i < named.NumMethods(); i++ {
				if keep[named.Method(i).Name()] {
					reach(named.Method(i))
				}
			}
		}
	}
	for _, root := range c.roots {
		reach(root)
	}

	findings := map[string]types.Object{}
	lines := 0
	for obj, node := range c.decls {
		if reached[obj] || obj.Pkg().Path() == modPath+"/benchmark" {
			continue
		}
		name := obj.Pkg().Path() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok { // (*path.T).M is spelled path.T.M
			name = strings.NewReplacer("(*", "", "(", "", ")", "").Replace(fn.FullName())
		}
		findings[strings.TrimPrefix(name, modPath+"/")] = obj
		lines += c.fset.Position(node.End()).Line - c.fset.Position(node.Pos()).Line + 1
	}
	t.Logf("%d unreached declarations, %d lines", len(findings), lines)

	allow, err := os.ReadFile("testdata/unreachable.allow")
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(allow), "\n") {
		switch entry := strings.Fields(line); {
		case len(entry) == 0 || strings.HasPrefix(entry[0], "#"):
		case len(entry) == 1:
			t.Errorf("unreachable.allow:%d: %s has no reason", i+1, entry[0])
		case findings[entry[0]] == nil:
			t.Errorf("unreachable.allow:%d: stale entry %s: it is reached or gone", i+1, entry[0])
		default:
			reach(findings[entry[0]])
		}
	}
	for name, obj := range findings {
		if !reached[obj] {
			t.Errorf("%s: %s is unreached and not in testdata/unreachable.allow", c.fset.Position(obj.Pos()), name)
		}
	}

	for _, f := range c.writeOnlyFields() {
		t.Errorf("%s: field %s is written but never read", c.fset.Position(f.Pos()), f.Name())
	}
}

// writeOnlyFields returns the struct fields declared outside benchmark/
// that some assignment, increment or composite literal writes and no
// other use reads.
func (c *reachChecker) writeOnlyFields() []*types.Var {
	writes := map[*ast.Ident]bool{} // the selector names written
	tagged := map[types.Object]bool{}
	lhs := func(e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, e := range n.Lhs {
						lhs(e)
					}
				}
			case *ast.IncDecStmt:
				lhs(n.X)
			case *ast.CompositeLit:
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true // a map literal's key resolves to no field
						}
					}
				}
			case *ast.Field:
				if n.Tag != nil && strings.Contains(n.Tag.Value, `json:"`) {
					for _, id := range n.Names {
						tagged[c.info.Defs[id]] = true
					}
				}
			}
			return true
		})
	}
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for id, obj := range c.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			if writes[id] {
				written[v.Origin()] = true
			} else {
				read[v.Origin()] = true
			}
		}
	}
	var out []*types.Var
	for v := range written {
		if p := v.Pkg().Path(); !read[v] && !tagged[v] && !v.Embedded() && c.pkgs[p] != nil && p != modPath+"/benchmark" {
			out = append(out, v)
		}
	}
	return out
}
