// Command deadcheck, run from the repository root, fails when a top-level
// declaration under internal/ is reached by no binary. It links the
// top-level declarations of every non-test Go file (nested modules such as
// bench/ included) by identifier — a bare name to its own package, an
// import-qualified selector to the imported one — and walks from every
// main and init. A method is reached when its receiver type is; `var _ I =
// (*T)(nil)` is never a root. A stale allowlist entry (missing, or reached
// by a binary) fails too, so the list can only shrink.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowlist keeps declarations that no binary reaches, keyed by import
// path + "." + name, each with the reason it stays.
var allowlist = map[string]string{
	"dlbooster/internal/backends.NewNvJPEG":        "the paper's GPU-decode baseline (DESIGN.md substitution table), a core.NewHost decoder no binary offers; the §4.2 byte-identical-batches integration test runs it",
	"dlbooster/internal/lmdb.Open":                 "reads the databases `dlgen -lmdb` writes",
	"dlbooster/internal/jpeg.DecodeConfig":         "the header-only probe CI fuzzes (FuzzDecodeConfig)",
	"dlbooster/internal/jpeg.DefaultEncodeOptions": "encoder defaults shared by the tests of several packages",
	"dlbooster/internal/fpga.DefaultConfig":        "board defaults shared by the tests of several packages",
	"dlbooster/internal/fpga.EncodeRaw":            "raw-image framing shared by the fpga and core tests",
	"dlbooster/internal/leakcheck.Main":            "the goroutine-leak check every test binary's TestMain runs",
}

func main() {
	if problems := check(".", allowlist); len(problems) > 0 {
		fmt.Println(strings.Join(problems, "\n"))
		os.Exit(1)
	}
}

// decl is one top-level declaration: where it is, the syntax its edges are
// read from, the name that declares it and the imports of its file.
type decl struct {
	pos, pkg string
	node     ast.Node
	self     *ast.Ident
	imports  map[string]string
}

// decls holds every declaration by key: path.Name, or path.Type.Method.
type decls map[string]*decl

// check loads the tree at root and returns one line per problem, sorted.
func check(root string, allow map[string]string) []string {
	ds := decls{}
	if err := ds.load(root); err != nil {
		return []string{err.Error()}
	}
	live := map[string]bool{}
	for key := range ds {
		if strings.Contains(key, "#") { // a main or an init
			ds.reach(live, key)
		}
	}
	var problems []string
	for key := range allow {
		if ds[key] == nil || live[key] {
			problems = append(problems, "allowlist: "+key+" is stale (missing, or reached by a binary); delete the entry")
		}
	}
	for key := range allow {
		ds.reach(live, key)
	}
	for key, d := range ds {
		if !live[key] && strings.HasPrefix(d.pos, "internal/") {
			problems = append(problems, d.pos+": "+key+" is reached by no binary")
		}
	}
	sort.Strings(problems)
	return problems
}

// load files the declarations of every non-test Go file under root by the
// import path its nearest go.mod gives it.
func (ds decls) load(root string) error {
	modules := map[string]string{} // directory → module path
	moduleLine := regexp.MustCompile(`(?m)^module\s+"?([^\s"]+)`)
	fset := token.NewFileSet()
	return filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if e.IsDir() && rel != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
			return filepath.SkipDir
		} else if e.IsDir() {
			b, _ := os.ReadFile(filepath.Join(p, "go.mod"))
			if m := moduleLine.FindSubmatch(b); m != nil {
				modules[rel] = string(m[1])
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		mod := path.Dir(rel)
		for modules[mod] == "" && mod != "." {
			mod = path.Dir(mod)
		}
		pkg := path.Join(modules[mod], strings.TrimPrefix(path.Dir(rel), mod))
		ds.addFile(fset, rel, pkg, f)
		return nil
	})
}

// addFile records the declarations of file rel in package pkg; a main or
// an init is keyed name#position, which no identifier can reach.
func (ds decls) addFile(fset *token.FileSet, rel, pkg string, f *ast.File) {
	imports := map[string]string{}
	for _, s := range f.Imports {
		p := strings.Trim(s.Path.Value, `"`)
		imports[path.Base(p)] = p
		if s.Name != nil {
			imports[s.Name.Name] = p
		}
	}
	add := func(name string, node ast.Node, self *ast.Ident) {
		pos := fmt.Sprintf("%s:%d", rel, fset.Position(node.Pos()).Line)
		ds[pkg+"."+name] = &decl{pos, pkg, node, self, imports}
	}
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok {
			switch name := d.Name.Name; {
			case d.Recv != nil:
				typ, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"), "[")
				add(typ+"."+name, d, d.Name)
			case name == "init" || name == "main" && f.Name.Name == "main":
				add(fmt.Sprintf("%s#%d", name, d.Pos()), d, d.Name)
			case name != "_":
				add(name, d, d.Name)
			}
			continue
		}
		for _, s := range d.(*ast.GenDecl).Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				add(s.Name.Name, s, s.Name)
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.Name != "_" {
						add(n.Name, s, n)
					}
				}
			}
		}
	}
}

// reach marks live every declaration reachable from keys.
func (ds decls) reach(live map[string]bool, keys ...string) {
	for _, key := range keys {
		d := ds[key]
		if d == nil || live[key] {
			continue
		}
		live[key] = true
		prefix := key + "."
		for m := range ds {
			if strings.HasPrefix(m, prefix) { // a method of this type
				ds.reach(live, m)
			}
		}
		var walk func(ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && d.imports[x.Name] != "" {
					ds.reach(live, d.imports[x.Name]+"."+n.Sel.Name)
					return false
				}
				ast.Inspect(n.X, walk) // n.Sel is a field or a method
				return false
			case *ast.Ident:
				if n != d.self {
					ds.reach(live, d.pkg+"."+n.Name)
				}
			}
			return true
		}
		ast.Inspect(d.node, walk)
	}
}
