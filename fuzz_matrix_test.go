package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFuzzMatrixNamesEveryTarget keeps the nightly fuzz workflow's
// matrix and the module's fuzz targets in step: .github/workflows/fuzz.yml
// must list exactly the root module's `func Fuzz*` targets, each once
// and with the package that declares it, so a new target cannot go
// unfuzzed and a deleted or moved one cannot leave a failing job behind.
func TestFuzzMatrixNamesEveryTarget(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/fuzz.yml")
	if err != nil {
		t.Fatal(err)
	}
	var matrix []string
	for _, m := range regexp.MustCompile(`\{ *target: *(\w+), *pkg: *([\w./-]+) *\}`).FindAllSubmatch(yml, -1) {
		matrix = append(matrix, string(m[2])+" "+string(m[1]))
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	var targets []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // another module (bench/)
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			targets = append(targets, filepath.ToSlash(filepath.Dir(path))+" "+string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	slices.Sort(matrix)
	slices.Sort(targets)
	if len(targets) == 0 {
		t.Fatal("found no fuzz targets")
	}
	for i := 1; i < len(matrix); i++ {
		if matrix[i] == matrix[i-1] {
			t.Errorf("fuzz.yml lists %q twice", matrix[i])
		}
	}
	for _, tg := range targets {
		if _, ok := slices.BinarySearch(matrix, tg); !ok {
			t.Errorf("fuzz target %q (package, name) is missing from fuzz.yml's matrix", tg)
		}
	}
	for _, m := range matrix {
		if _, ok := slices.BinarySearch(targets, m); !ok {
			t.Errorf("fuzz.yml's matrix lists %q (package, name), which the module does not declare", m)
		}
	}
}
