package dlbooster

// docrefs_doc_test pins the prose to the code: every backticked
// `pkg.Name` in README.md, DESIGN.md and docs/*.md whose pkg is one of
// the internal/ packages must name an exported top-level declaration of
// that package (a function, method, type, var or const, as `go doc
// pkg.Name` resolves it), so a rename or a deletion cannot leave the
// documents pointing at code that is gone. The declarations come from go/parser
// over the package sources; nothing is built or executed.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRefRe matches a reference opened by a backtick: a lower-case
// package identifier, a dot, and an exported identifier. Anything after
// the name (`.Field`, a call's arguments) is not checked.
var docRefRe = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)")

// internalDecls returns, per internal/ package name, the names of its
// top-level declarations — functions and methods, types, vars and
// consts — from the non-test files.
func internalDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	decls := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						names[d.Name.Name] = true
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch s := spec.(type) {
							case *ast.TypeSpec:
								names[s.Name.Name] = true
							case *ast.ValueSpec:
								for _, n := range s.Names {
									names[n.Name] = true
								}
							}
						}
					}
				}
			}
		}
		if len(names) > 0 {
			decls[filepath.Base(dir)] = names
		}
	}
	return decls
}

func TestDocsNameExistingDeclarations(t *testing.T) {
	decls := internalDecls(t)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range docRefRe.FindAllStringSubmatch(line, -1) {
				names, internal := decls[m[1]]
				if !internal {
					continue // errors.Is, sync.Pool, …: not this module's
				}
				checked++
				if !names[m[2]] {
					t.Errorf("%s:%d: `%s.%s` names no exported top-level declaration of internal/%s", path, i+1, m[1], m[2], m[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no internal package reference found: the pattern or the file list is broken")
	}
	t.Logf("%d references checked", checked)
}
