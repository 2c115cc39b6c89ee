package probsyn_test

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests: every `go test -run <pattern>` and
// `-fuzz <pattern>` in the CI workflow names at least one test or fuzz
// target in each package the line lists. A pattern that matches nothing
// passes vacuously, so a test renamed or deleted here would drop out of
// CI without a sound. (-run '^$', "run none", is how a fuzz or bench step
// keeps the tests out; it is skipped.)
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
	// go test -list prints each package's tests, then its "ok" line.
	args := []string{"test", "-list", "."}
	for pkg := range pkgSet {
		args = append(args, pkg)
	}
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	listed := map[string][]string{} // import path -> test and fuzz names
	var names []string
	for sc := bufio.NewScanner(bytes.NewReader(out)); sc.Scan(); {
		if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "ok" {
			listed[f[1]], names = names, nil
		} else if len(f) == 1 {
			names = append(names, f[0])
		}
	}
	for _, u := range uses {
		// -run matches its first '/'-separated element against top-level
		// names; -fuzz matches fuzz targets.
		re, err := regexp.Compile(strings.Split(u.pattern, "/")[0])
		if err != nil {
			t.Errorf("%s %q: %v", u.flag, u.pattern, err)
			continue
		}
		path := "probsyn"
		if u.pkg != "." {
			path += "/" + strings.TrimPrefix(u.pkg, "./")
		}
		found := false
		for _, name := range listed[path] {
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
