// Package exportcheck is a ratchet on dead exported API: it fails
// when an exported package-level function under internal/ has no
// reference from any non-test Go file of the root module or of the
// grobench module. Functions that only tests use are listed, each
// with its reason, in testonly.txt; an entry that goes stale (the
// function gained a caller or is gone) fails the test too, so the
// list can only shrink.
//
// The check is name-based and uses only go/parser and go/ast: a
// selector pkg.Name counts as a reference to the function Name of
// the package imported as pkg, and a bare Name counts inside the
// declaring package.
package exportcheck

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// module is the root module's path; grobench lives in its own module
// under it.
const module = "grophecy"

// goFile is one parsed non-test source file.
type goFile struct {
	pkgPath string // import path of the file's directory
	ast     *ast.File
}

func TestNoDeadExports(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	files := parseTree(t, root)

	// Exported package-level functions declared under internal/,
	// keyed "internal/pkg.Name", and each package's name by path.
	declared := map[string]bool{}
	pkgNames := map[string]string{}
	for _, f := range files {
		pkgNames[f.pkgPath] = f.ast.Name.Name
		if !strings.HasPrefix(f.pkgPath, module+"/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
				declared[key(f.pkgPath, fn.Name.Name)] = true
			}
		}
	}

	referenced := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name, ok := pkgNames[p]
			if !ok {
				name = path.Base(p)
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declaring identifier is not a use of the function.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						referenced[key(p, n.Sel.Name)] = true
						return false
					}
				}
				// A field or method selector: Sel names no function.
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				referenced[key(f.pkgPath, n.Name)] = true
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	allowed := readAllowlist(t)
	var dead, stale []string
	for k := range declared {
		if !referenced[k] && allowed[k] == "" {
			dead = append(dead, k)
		}
	}
	for k := range allowed {
		if !declared[k] || referenced[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	for _, k := range dead {
		t.Errorf("%s is exported but no non-test file references it: delete it, or list it in testonly.txt with the reason tests need it", k)
	}
	for _, k := range stale {
		t.Errorf("testonly.txt lists %s, which is gone or now has a non-test reference: remove the entry", k)
	}
}

// key names a function by its package path relative to the module.
func key(pkgPath, name string) string {
	return strings.TrimPrefix(pkgPath, module+"/") + "." + name
}

// parseTree parses every non-test Go file of the repository, the
// grobench module included, skipping build output and test data.
func parseTree(t *testing.T, root string) []goFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []goFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" || name == "out") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkgPath := module
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		files = append(files, goFile{pkgPath: pkgPath, ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// readAllowlist loads testonly.txt: one "internal/pkg.Name reason"
// entry per line; blank lines and # comments are ignored.
func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testonly.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		name, reason, _ := strings.Cut(text, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Errorf("testonly.txt:%d: %s has no reason", line, name)
			reason = "?"
		}
		if _, dup := out[name]; dup {
			t.Errorf("testonly.txt:%d: %s listed twice", line, name)
		}
		out[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
