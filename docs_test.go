package retina

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedTest matches a test, benchmark or fuzz target named inside a
// backticked span: a plain name, a name with brace alternatives
// (`TestRSSSkew{Elephant,Uniform}`), a prefix (`BenchmarkFig5*`), or a
// name followed by a subtest path (`BenchmarkBurstSize/{1,8}`), of
// which only the top-level name is checked.
var citedTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_](?:\w|\{[\w,]+\})*\*?`)

// TestDocsResolve fails when DESIGN.md, README.md or EXPERIMENTS.md
// cites, in backticks, a Test, Benchmark or Fuzz function that no
// _test.go file in the tree declares.
func TestDocsResolve(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !declared["TestDocsResolve"] {
		t.Fatal("walk found no test declarations")
	}

	span := regexp.MustCompile("`[^`\n]+`")
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range span.FindAllString(string(body), -1) {
			for _, cite := range citedTest.FindAllString(s, -1) {
				for _, name := range expandBraces(cite) {
					if !resolves(declared, name) {
						t.Errorf("%s cites %s: no test, benchmark or fuzz target is named %s", doc, s, name)
					}
				}
			}
		}
	}
}

// expandBraces expands each {a,b} group of s into its alternatives.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := open + strings.IndexByte(s[open:], '}')
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// resolves reports whether name, or for a trailing * the prefix before
// it, names a declared function.
func resolves(declared map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}
