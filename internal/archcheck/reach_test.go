package archcheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReachAllowlist holds reach_allowlist.txt, the list `make reach`
// reads, to its form. `make reach` checks that each entry names a
// function no binary links; this test checks what the awk there takes on
// trust: every entry is `symbol<TAB>reason` with a reason, no symbol is
// listed twice, and each symbol names a function declared in a non-test
// file under internal/ or a package directory there.
func TestReachAllowlist(t *testing.T) {
	t.Parallel()
	top := root(t)
	list, err := os.ReadFile(filepath.Join(top, "internal", "archcheck", "reach_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	funcs, pkgs := declared(t, top)
	for _, p := range allowlistProblems(string(list), funcs, pkgs) {
		t.Error("reach_allowlist.txt: " + p)
	}
}

// TestAllowlistProblemsCatchesEachFlaw runs the checker over one list
// holding each flaw it exists to stop, so a checker that lets one through
// fails here rather than passing the real list vacuously.
func TestAllowlistProblemsCatchesEachFlaw(t *testing.T) {
	t.Parallel()
	funcs := map[string]bool{"m/internal/a.F": true, "m/internal/a.(*T).M": true}
	pkgs := map[string]bool{"m/internal/a": true}
	list := strings.Join([]string{
		"# a comment",
		"",
		"m/internal/a.F\tkept on purpose",
		"m/internal/a\ta harness package",
		"m/internal/a.(*T).M",       // no reason
		"m/internal/a.(*T).M\t  ",   // a blank reason
		"m/internal/a.F\tagain",     // listed twice
		"m/internal/a.Gone\tstale",  // no such function
		"m/internal/b\tno such dir", // no such package
		"m/internal/a.F extra\tx",   // a space in the symbol
	}, "\n")
	got := allowlistProblems(list, funcs, pkgs)
	want := []string{
		"line 5: \"m/internal/a.(*T).M\" is not symbol<TAB>reason with a reason",
		"line 6: \"m/internal/a.(*T).M\\t  \" is not symbol<TAB>reason with a reason",
		"line 7: m/internal/a.F is listed twice (first on line 3)",
		"line 8: m/internal/a.Gone names no function declared in a non-test file under internal/, and no package directory",
		"line 9: m/internal/b names no function declared in a non-test file under internal/, and no package directory",
		"line 10: \"m/internal/a.F extra\\tx\" is not symbol<TAB>reason with a reason",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// allowlistProblems returns one line per flaw of the allowlist text,
// given the symbols of the declared functions and of the package
// directories.
func allowlistProblems(list string, funcs, pkgs map[string]bool) []string {
	var problems []string
	first := map[string]int{}
	for i, line := range strings.Split(list, "\n") {
		n := i + 1
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, ok := strings.Cut(line, "\t")
		if !ok || sym == "" || strings.ContainsAny(sym, " \t") || strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("line %d: %q is not symbol<TAB>reason with a reason", n, line))
			continue
		}
		if at, dup := first[sym]; dup {
			problems = append(problems, fmt.Sprintf("line %d: %s is listed twice (first on line %d)", n, sym, at))
			continue
		}
		first[sym] = n
		if !funcs[sym] && !pkgs[sym] {
			problems = append(problems, fmt.Sprintf("line %d: %s names no function declared in a non-test file under internal/, and no package directory", n, sym))
		}
	}
	return problems
}

// declared parses every non-test file under internal/ and returns the
// functions declared there, named as `go tool nm` and `make reach` name
// them (repro/dir.F, repro/dir.T.M, repro/dir.(*T).M, type parameters
// dropped), and the directories holding them, named as import paths.
func declared(t *testing.T, top string) (funcs, pkgs map[string]bool) {
	t.Helper()
	funcs, pkgs = map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(filepath.Join(top, "internal"), func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(top, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "repro/" + filepath.ToSlash(dir)
		pkgs[pkg] = true
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			funcs[pkg+"."+receiver(fn)+fn.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs, pkgs
}

// receiver renders a method's receiver as a symbol prefix: "(*T)." for a
// pointer receiver, "T." for a value one, "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ, ptr := fn.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}
