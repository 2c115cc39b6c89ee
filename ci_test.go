package probsyn_test

import (
	"go/build"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests: every `go test -run <pattern>` and
// `-fuzz <pattern>` in the CI workflow and in the verify skill names at
// least one test or fuzz target in each package the line lists, and each
// of its top-level | alternatives, which go test matches on its own,
// names one in at least one of them. A pattern, or an alternative, that
// matches nothing passes vacuously, so a test renamed or deleted here
// would drop out of CI without a sound. (-run '^$', "run none", is how a
// fuzz or bench step keeps the tests out; it is skipped.) The names come
// from scanning each package's test files (testNames), not from `go test
// -list`, which would build every listed package's test binary.
func TestCIPatternsMatchTests(t *testing.T) {
	type use struct {
		file, flag, pattern string
		pkgs                []string
	}
	var uses []use
	pkgSet := map[string]bool{}
	for _, file := range []string{".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		n := len(uses)
		for _, line := range strings.Split(string(text), "\n") {
			_, cmd, ok := strings.Cut(line, "go test ")
			if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			var flags [][2]string
			var pkgs []string
			args := strings.Fields(cmd)
			for k := 0; k < len(args); k++ {
				a := args[k]
				if a != "." {
					a = strings.TrimRight(a, "`.,;)") // prose: `go test … ./pkg`.
				}
				switch {
				case (a == "-run" || a == "-fuzz") && k+1 < len(args):
					k++
					if p := strings.Trim(args[k], `'"`); p != "^$" {
						flags = append(flags, [2]string{a, p})
					}
				case a == "." || strings.HasPrefix(a, "./") && !strings.Contains(a, "..."):
					pkgs = append(pkgs, a)
				}
			}
			for _, f := range flags {
				uses = append(uses, use{file, f[0], f[1], pkgs})
				for _, pkg := range pkgs {
					pkgSet[pkg] = true
				}
			}
		}
		if len(uses) == n {
			t.Fatalf("no -run or -fuzz pattern found in %s", file)
		}
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
		// Each alternative's first /-separated element is matched against
		// top-level names: -run's against tests, -fuzz's against fuzz
		// targets.
		alts := splitPattern(u.pattern, '|')
		res := make([]*regexp.Regexp, len(alts))
		for k, alt := range alts {
			re, err := regexp.Compile(splitPattern(alt, '/')[0])
			if err != nil {
				t.Errorf("%s: %s %q: %v", u.file, u.flag, u.pattern, err)
				continue
			}
			res[k] = re
		}
		matches := func(re *regexp.Regexp, pkg string) bool {
			for _, name := range listed[pkg] {
				if re != nil && re.MatchString(name) && (u.flag == "-run" || strings.HasPrefix(name, "Fuzz")) {
					return true
				}
			}
			return false
		}
		for _, pkg := range u.pkgs {
			if !slices.ContainsFunc(res, func(re *regexp.Regexp) bool { return matches(re, pkg) }) {
				t.Errorf("%s: %s %q matches no test in %s", u.file, u.flag, u.pattern, pkg)
			}
		}
		for k, re := range res {
			if !slices.ContainsFunc(u.pkgs, func(pkg string) bool { return matches(re, pkg) }) {
				t.Errorf("%s: %s %q: its alternative %q matches no test in %v", u.file, u.flag, u.pattern, alts[k], u.pkgs)
			}
		}
	}
}

// splitPattern splits a go test pattern at each sep outside brackets and
// parentheses, as go test splits -run at its top-level | and then each
// alternative at its /.
func splitPattern(pattern string, sep byte) []string {
	var parts []string
	depth, class, start := 0, false, 0
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == sep && depth == 0:
			parts = append(parts, pattern[start:i])
			start = i + 1
		}
	}
	return append(parts, pattern[start:])
}

// testNames returns the top-level tests, fuzz targets and examples that
// `go test` would find in the package in dir: the TestXxx, FuzzXxx and
// ExampleXxx functions of its _test.go files that build on this platform
// without tags (go/build's constraint rules, as `go test` applies them).
// The files are gofmt'd, so a declaration starts its line.
func testNames(dir string) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
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
		src, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names, nil
}

// testFunc matches a top-level TestXxx, FuzzXxx or ExampleXxx declaration,
// Xxx not starting with a lower-case letter.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Example)(?:[^\p{Ll}(]\w*)?)\(`)
