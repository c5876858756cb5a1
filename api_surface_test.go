package slicing

// The golden API-surface test: the exported surface of package slicing
// is a compatibility contract, and this test turns it into a diff. It
// parses every non-test file of the package with go/parser, renders one
// canonical line per exported identifier (kind, name, and type or
// signature), and compares the sorted result against
// testdata/api_surface.golden.
//
// An accidental removal, rename, or signature change fails the test
// with the missing lines named. Deliberate surface changes are blessed
// with:
//
//	go test -run TestAPISurface -update
//
// which rewrites the golden file; the diff then shows up in review.

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/*.golden files from the current source")

const goldenPath = "testdata/api_surface.golden"

func TestAPISurface(t *testing.T) {
	got := apiSurface(t, ".")

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("mkdir testdata: %v", err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		t.Logf("updated %s (%d lines)", goldenPath, strings.Count(got, "\n"))
		return
	}

	wantBytes, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s: %v (run `go test -run TestAPISurface -update` to create it)", goldenPath, err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}

	gotSet := lineSet(got)
	wantSet := lineSet(want)
	var removed, added []string
	for line := range wantSet {
		if !gotSet[line] {
			removed = append(removed, line)
		}
	}
	for line := range gotSet {
		if !wantSet[line] {
			added = append(added, line)
		}
	}
	sort.Strings(removed)
	sort.Strings(added)

	if len(removed) > 0 {
		t.Errorf("exported API surface lost %d declaration(s) — this breaks downstream users:\n  - %s",
			len(removed), strings.Join(removed, "\n  - "))
	}
	if len(added) > 0 {
		t.Errorf("exported API surface gained %d declaration(s) not yet in the golden file:\n  + %s\nbless with `go test -run TestAPISurface -update`",
			len(added), strings.Join(added, "\n  + "))
	}
	if len(removed) == 0 && len(added) == 0 {
		t.Errorf("api surface text differs from golden (ordering or formatting drift); bless with -update")
	}
}

// apiSurface renders the exported surface of the package rooted at dir
// as sorted "kind name: detail" lines, one per exported identifier.
func apiSurface(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse package: %v", err)
	}
	pkg, ok := pkgs["slicing"]
	if !ok {
		t.Fatalf("package slicing not found in %s (got %v)", dir, pkgNames(pkgs))
	}

	var lines []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue // the facade exposes methods via aliased internal types
				}
				lines = append(lines, "func "+d.Name.Name+render(fset, d.Type))
			case *ast.GenDecl:
				lines = append(lines, genDeclLines(fset, d)...)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

func genDeclLines(fset *token.FileSet, d *ast.GenDecl) []string {
	var lines []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			eq := ""
			if s.Assign.IsValid() {
				eq = "= "
			}
			lines = append(lines, fmt.Sprintf("type %s %s%s", s.Name.Name, eq, render(fset, s.Type)))
		case *ast.ValueSpec:
			kind := "var"
			if d.Tok == token.CONST {
				kind = "const"
			}
			for i, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				detail := ""
				if s.Type != nil {
					detail = " " + render(fset, s.Type)
				} else if i < len(s.Values) {
					detail = " = " + render(fset, s.Values[i])
				}
				lines = append(lines, kind+" "+name.Name+detail)
			}
		}
	}
	return lines
}

var spaceRe = regexp.MustCompile(`\s+`)

// render prints an AST node on one line. For funcs the node is the
// *ast.FuncType, so the output starts with "func(...)"; the leading
// "func" is trimmed when appended after a name.
func render(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		return fmt.Sprintf("<unprintable: %v>", err)
	}
	s := spaceRe.ReplaceAllString(buf.String(), " ")
	return strings.TrimPrefix(s, "func")
}

func lineSet(s string) map[string]bool {
	set := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if line != "" {
			set[line] = true
		}
	}
	return set
}

func pkgNames(pkgs map[string]*ast.Package) []string {
	var names []string
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestFacadeNamesUsed is the facade's ratchet: an exported name stays
// only if a program under cmd/ or examples/, or an Example in
// example_test.go, spells it as slicing.X, or it appears in the
// signature of a facade declaration that stays. Anything else is surface
// with no caller, and the test names it.
func TestFacadeNamesUsed(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// sig maps each exported facade name to the identifiers of its
	// signature, type or value.
	sig := map[string][]string{}
	for _, file := range pkgs["slicing"].Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					sig[d.Name.Name] = localIdents(d.Type)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							sig[s.Name.Name] = localIdents(s.Type)
						}
					case *ast.ValueSpec:
						nodes := []ast.Node{s.Type}
						for _, v := range s.Values {
							nodes = append(nodes, v)
						}
						for _, name := range s.Names {
							if name.IsExported() {
								sig[name.Name] = localIdents(nodes...)
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	var work []string
	spell := func(name string) {
		if _, ok := sig[name]; ok && !used[name] {
			used[name] = true
			work = append(work, name)
		}
	}
	files := []string{"example_test.go"}
	for _, dir := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"github.com/gossipkit/slicing"` {
				local = "slicing"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && local != "" && x.Name == local {
					spell(sel.Sel.Name)
				}
			}
			return true
		})
	}
	for len(work) > 0 {
		name := work[len(work)-1]
		work = work[:len(work)-1]
		for _, id := range sig[name] {
			spell(id)
		}
	}

	var unused []string
	for name := range sig {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported facade name(s) that no cmd/ or examples/ program, no Example and no kept signature spells; delete them or show a caller:\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}

// localIdents lists the unqualified identifiers under the nodes: in a
// facade declaration those are the facade's own names (pkg.X selectors
// name another package and are skipped).
func localIdents(nodes ...ast.Node) []string {
	var ids []string
	for _, n := range nodes {
		if n == nil {
			continue
		}
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return false
			case *ast.Ident:
				ids = append(ids, n.Name)
			}
			return true
		})
	}
	return ids
}
