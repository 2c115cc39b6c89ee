package probsyn_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// TestCIPatternsMatchTests: every `go test -run <pattern>` and
// `-fuzz <pattern>` in the CI workflow names at least one test or fuzz
// target in each package the line lists. A pattern that matches nothing
// passes vacuously, so a test renamed or deleted here would drop out of
// CI without a sound. (-run '^$', "run none", is how a fuzz or bench step
// keeps the tests out; it is skipped.) The names come from parsing each
// package's test files (testNames), not from `go test -list`, which would
// build every listed package's test binary.
func TestCIPatternsMatchTests(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	type use struct{ flag, pattern, pkg string }
	var uses []use
	pkgSet := map[string]bool{}
	for _, line := range strings.Split(string(yml), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var flags [][2]string
		var pkgs []string
		args := strings.Fields(cmd)
		for k := 0; k < len(args); k++ {
			switch a := args[k]; {
			case (a == "-run" || a == "-fuzz") && k+1 < len(args):
				k++
				if p := strings.Trim(args[k], `'"`); p != "^$" {
					flags = append(flags, [2]string{a, p})
				}
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		for _, f := range flags {
			for _, pkg := range pkgs {
				uses = append(uses, use{f[0], f[1], pkg})
				pkgSet[pkg] = true
			}
		}
	}
	if len(uses) == 0 {
		t.Fatal("no -run or -fuzz pattern found in ci.yml")
	}
	listed := map[string][]string{} // package directory -> test and fuzz names
	for pkg := range pkgSet {
		names, err := testNames(pkg)
		if err != nil {
			t.Fatal(err)
		}
		listed[pkg] = names
	}
	for _, u := range uses {
		// -run matches its first '/'-separated element against top-level
		// names; -fuzz matches fuzz targets.
		re, err := regexp.Compile(strings.Split(u.pattern, "/")[0])
		if err != nil {
			t.Errorf("%s %q: %v", u.flag, u.pattern, err)
			continue
		}
		found := false
		for _, name := range listed[u.pkg] {
			if re.MatchString(name) && (u.flag == "-run" || strings.HasPrefix(name, "Fuzz")) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("ci.yml: %s %q matches no test in %s", u.flag, u.pattern, u.pkg)
		}
	}
}

// testNames returns the top-level tests, fuzz targets and examples that
// `go test` would find in the package in dir: the TestXxx, FuzzXxx and
// ExampleXxx functions of its _test.go files that build on this platform
// without tags (go/build's constraint rules, as `go test` applies them).
func testNames(dir string) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, f.Name()); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, f.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Example"} {
				if rest, ok := strings.CutPrefix(fn.Name.Name, prefix); ok && (rest == "" || !unicode.IsLower(rune(rest[0]))) {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names, nil
}
