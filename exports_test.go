package lambmesh

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

// exportedDecl is an exported top-level function or method declared in a
// non-test file under internal/.
type exportedDecl struct {
	dir  string // package directory, slash-separated and module-relative
	recv string // receiver type name, or "" for a function
	name string
	pos  string
}

func (d exportedDecl) String() string {
	if d.recv != "" {
		return d.pos + ": " + d.dir + "." + d.recv + "." + d.name
	}
	return d.pos + ": " + d.dir + "." + d.name
}

// TestInternalExportsHaveCallers keeps the internal packages' exported API
// to what something outside each package calls. An exported function or
// method under internal/ is flagged when all of these hold:
//   - no non-test Go file in the module (perfbench/ included) names it,
//     apart from its own declaration;
//   - no test file outside its own package directory names it;
//   - it is not a method of a type that lambmesh.go aliases.
//
// A reference or constructor that only its own package's tests use belongs
// in a _test.go file of that package. Names are matched as identifiers, not
// resolved, so a name shared by two declarations keeps both.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	// Identifier counts over non-test files, and per package directory
	// over test files.
	nonTest := map[string]int{}
	testUses := map[string]map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if path != "." && (strings.HasPrefix(base, ".") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		if isTest && testUses[dir] == nil {
			testUses[dir] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if isTest {
					testUses[dir][id.Name] = true
				} else {
					nonTest[id.Name]++
				}
			}
			return true
		})
		if isTest || !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			decls = append(decls, exportedDecl{
				dir:  dir,
				recv: recvTypeName(fn),
				name: fn.Name.Name,
				pos:  fset.Position(fn.Pos()).String(),
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	aliased := aliasedTypes(t, fset)

	var unused []string
	for _, d := range decls {
		if nonTest[d.name] > 1 { // one is the declaration itself
			continue
		}
		if d.recv != "" && aliased[d.dir+"."+d.recv] {
			continue
		}
		named := false
		for dir, uses := range testUses {
			if dir != d.dir && uses[d.name] {
				named = true
				break
			}
		}
		if !named {
			unused = append(unused, d.String())
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported functions or methods under internal/ have no caller outside their own package's tests; "+
			"delete them, or move them into a _test.go file:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// recvTypeName returns the base type name of fn's receiver, or "".
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// aliasedTypes returns "dir.Type" for each type that lambmesh.go aliases
// from an internal package, such as "internal/core.Result".
func aliasedTypes(t *testing.T, fset *token.FileSet) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(fset, "lambmesh.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	imports := map[string]string{} // local name -> module-relative dir
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		rel, ok := strings.CutPrefix(path, "lambmesh/")
		if !ok {
			continue
		}
		name := filepath.Base(rel)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = rel
	}
	aliased := map[string]bool{}
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.TYPE {
			continue
		}
		for _, spec := range gen.Specs {
			ts := spec.(*ast.TypeSpec)
			if !ts.Assign.IsValid() {
				continue
			}
			sel, ok := ts.Type.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
				aliased[imports[pkg.Name]+"."+sel.Sel.Name] = true
			}
		}
	}
	return aliased
}
