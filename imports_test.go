package repro_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// gobLoader is the one file allowed to import encoding/gob: the
// read-only loader of the retired gob checkpoint format.
const gobLoader = "internal/detect/checkpoint_v1.go"

// TestGobOnlyInV1Loader parses the imports of every non-test Go file in
// the repository and fails if any but gobLoader imports encoding/gob, so
// gob cannot return to the checkpoint's write path (or any other).
func TestGobOnlyInV1Loader(t *testing.T) {
	fset := token.NewFileSet()
	loaderImportsGob := false
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != "encoding/gob" {
				continue
			}
			if filepath.ToSlash(path) == gobLoader {
				loaderImportsGob = true
			} else {
				t.Errorf("%s imports encoding/gob; only %s may", path, gobLoader)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !loaderImportsGob {
		t.Errorf("%s no longer imports encoding/gob: update gobLoader, or delete this test with the loader", gobLoader)
	}
}
