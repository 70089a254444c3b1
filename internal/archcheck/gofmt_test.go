package archcheck

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGofmt holds every .go file of the module, tests included, to
// gofmt's output, the tree's only accepted formatting (`make fmt`
// rewrites). .bench_build/ is the benchmark's build cache, module
// sources included, and not ours to format.
func TestGofmt(t *testing.T) {
	t.Parallel()
	top := root(t)
	var bad []string
	err := filepath.WalkDir(top, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == filepath.Join(top, ".bench_build") || path == filepath.Join(top, ".git") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasPrefix(e.Name(), ".") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(top, path)
		if out, err := format.Source(src); err != nil {
			bad = append(bad, rel+": "+err.Error())
		} else if !bytes.Equal(out, src) {
			bad = append(bad, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) > 0 {
		t.Errorf("gofmt would rewrite (run make fmt):\n%s", strings.Join(bad, "\n"))
	}
}
