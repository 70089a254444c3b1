package archcheck

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// A pkg is one package of the module, type-checked from its non-test
// files and any planted ones.
type pkg struct {
	types *types.Package
	info  *types.Info
	files []*ast.File
}

// Every package is type-checked from source into one file set, through
// one importer, so that each dependency is checked once. loadMu
// serializes the type-checking: the importer is not safe for concurrent
// use.
var (
	fset   = token.NewFileSet()
	imp    = sourceImporter()
	loadMu sync.Mutex
	parsed = map[string][]*ast.File{} // non-test files by directory
	clean  = map[string]*pkg{}        // each package as it is
)

func sourceImporter() types.Importer {
	// The rules read this module's code only. Without cgo, net and its
	// dependents import from their pure-Go files, which halves the time
	// the source importer spends on the standard library.
	build.Default.CgoEnabled = false
	return importer.ForCompiler(fset, "source", nil)
}

// root is the module root, two levels above this package.
func root(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	return dir
}

// load parses the package in dir (relative to the module root) and
// type-checks its non-test files together with extra, which must be
// parsed into fset. With no extra files the result is kept, so
// each package as it is gets checked once per test binary. Any type
// error fails the test: a rule run over code that does not compile
// would prove nothing.
func load(t *testing.T, dir string, extra ...*ast.File) *pkg {
	t.Helper()
	loadMu.Lock()
	defer loadMu.Unlock()
	if p := clean[dir]; p != nil && len(extra) == 0 {
		return p
	}
	files, ok := parsed[dir]
	if !ok {
		abs := filepath.Join(root(t), dir)
		bp, err := build.ImportDir(abs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(abs, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		parsed[dir] = files
	}
	files = append(files[:len(files):len(files)], extra...)
	p := &pkg{files: files, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	var errs []error
	conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err) }}
	p.types, _ = conf.Check("repro/"+dir, fset, files, p.info)
	if len(errs) > 0 {
		t.Fatalf("type-checking %s: %v", dir, errors.Join(errs...))
	}
	if len(extra) == 0 {
		clean[dir] = p
	}
	return p
}
