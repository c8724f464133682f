package wideleak_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the repository's root module.
const modulePath = "repro"

// TestInternalPackagesReachable fails for any internal package that no
// command, example, benchmark or the facade reaches through its import
// graph: such a package is code nothing runs but its own tests. The
// roots are the facade, cmd/*, examples/* and perfbench/*.go (test files
// excluded); imports are followed through internal packages' non-test
// files.
func TestInternalPackagesReachable(t *testing.T) {
	var internal []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() && len(sourceFiles(t, path)) > 0 {
			internal = append(internal, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	queue := []string{".", "perfbench"}
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		queue = append(queue, dirs...)
	}
	reached := make(map[string]bool)
	for len(queue) > 0 {
		dir := queue[0]
		queue = queue[1:]
		for _, file := range sourceFiles(t, dir) {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				rel, ok := strings.CutPrefix(path, modulePath+"/")
				if !ok || !strings.HasPrefix(rel, "internal/") || reached[rel] {
					continue
				}
				reached[rel] = true
				queue = append(queue, rel)
			}
		}
	}

	var orphans []string
	for _, pkg := range internal {
		if !reached[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("internal packages no command, example, benchmark or the facade imports: %v", orphans)
	}
}

// sourceFiles lists dir's non-test Go files.
func sourceFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := files[:0]
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}
