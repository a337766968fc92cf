package perm_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRef matches a file name with a checked extension.
var docRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_]\.(?:go|md|json|sh)\b`)

// TestDocReferencesExist keeps docs and comments citing only files that
// exist: every *.go, *.md, *.json or *.sh path in README.md, PERFORMANCE.md or
// a non-test Go comment, backticked or not, must name a repository file,
// either by its path from the root, relative to the citing file, or as a
// path suffix (a bare compile.go). Templated names, next to a < > or *, are
// skipped. CHANGES.md and ROADMAP.md record history and are not checked.
func TestDocReferencesExist(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			files = append(files, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(ref, from string) bool {
		for _, f := range files {
			if f == ref || f == filepath.ToSlash(filepath.Join(filepath.Dir(from), ref)) || strings.HasSuffix(f, "/"+ref) {
				return true
			}
		}
		return false
	}
	check := func(from, text string, line int) {
		for _, m := range docRef.FindAllStringIndex(text, -1) {
			ref := strings.TrimPrefix(text[m[0]:m[1]], "./")
			templated := m[0] > 0 && strings.ContainsRune("<>*", rune(text[m[0]-1])) ||
				m[1] < len(text) && strings.ContainsRune("<>*", rune(text[m[1]]))
			if templated || exists(ref, from) {
				continue
			}
			t.Errorf("%s:%d cites %s, which does not exist", from, line, ref)
		}
	}
	for _, doc := range []string{"README.md", "PERFORMANCE.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range strings.Split(string(b), "\n") {
			check(doc, l, i+1)
		}
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if !strings.HasSuffix(f, ".go") || strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, cg := range af.Comments {
			for _, c := range cg.List {
				for i, l := range strings.Split(c.Text, "\n") {
					check(f, l, fset.Position(c.Slash).Line+i)
				}
			}
		}
	}
}
