package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"probsyn"
)

func TestBudgetsSpread(t *testing.T) {
	bs := budgets(100, 5)
	if bs[0] != 1 {
		t.Fatalf("first budget %d, want 1", bs[0])
	}
	if bs[len(bs)-1] != 100 {
		t.Fatalf("last budget %d, want 100", bs[len(bs)-1])
	}
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			t.Fatalf("budgets not strictly increasing: %v", bs)
		}
	}
}

func TestBudgetsDegenerate(t *testing.T) {
	bs := budgets(1, 5)
	if len(bs) != 1 || bs[0] != 1 {
		t.Fatalf("budgets(1,5) = %v, want [1]", bs)
	}
	bs = budgets(10, 1) // fewer than 2 points requested
	if bs[len(bs)-1] != 10 {
		t.Fatalf("budgets(10,1) = %v, want to end at 10", bs)
	}
}

func TestBudgetsNoDuplicatesWhenDense(t *testing.T) {
	bs := budgets(4, 10) // more points than distinct budgets
	seen := map[int]bool{}
	for _, b := range bs {
		if seen[b] {
			t.Fatalf("duplicate budget in %v", bs)
		}
		seen[b] = true
	}
}

// smoke are the sizes every mode finishes at in well under a second
// (fig3a, whose sizes are the figure's own, takes a few).
var smoke = []string{"-n", "256", "-points", "3", "-samples", "1"}

// table is one mode's output: the "# name: title…" line, the CSV header,
// and the data rows ("# … dp:" comment lines dropped).
type table struct {
	header string
	cols   []string
	rows   [][]string
}

func runMode(t *testing.T, args ...string) table {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(append([]string(nil), smoke...), args...), &out); err != nil {
		t.Fatalf("experiments %v: %v", args, err)
	}
	return parseTable(t, out.String())
}

// parseTable reads one mode's output.
func parseTable(t *testing.T, text string) table {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("a table of %d lines:\n%s", len(lines), text)
	}
	tab := table{header: lines[0], cols: strings.Split(lines[1], ",")}
	for _, line := range lines[2:] {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		row := strings.Split(line, ",")
		if len(row) != len(tab.cols) {
			t.Fatalf("%s: row %q has %d fields under header %q", tab.header, line, len(row), lines[1])
		}
		tab.rows = append(tab.rows, row)
	}
	return tab
}

func (tab table) float(t *testing.T, row int, col string) float64 {
	t.Helper()
	for i, c := range tab.cols {
		if c == col {
			v, err := strconv.ParseFloat(tab.rows[row][i], 64)
			if err != nil {
				t.Fatalf("%s row %d column %s: %v", tab.header, row, col, err)
			}
			return v
		}
	}
	t.Fatalf("%s: no column %q in %v", tab.header, col, tab.cols)
	return 0
}

// Every mode of the table exits nil and prints its own header line, a CSV
// header and at least one row under it. The modes run as `all`, which must
// print every table once, in table order, each closed by a blank line;
// -short runs them one at a time instead and skips fig3a, which runs the
// figure's own sizes (n up to 8000).
func TestEveryModeRuns(t *testing.T) {
	modes := (&config{}).modes()
	var texts []string
	if !testing.Short() {
		var out bytes.Buffer
		if err := run(append(append([]string(nil), smoke...), "all"), &out); err != nil {
			t.Fatalf("experiments all: %v", err)
		}
		texts = strings.Split(strings.TrimSuffix(out.String(), "\n\n"), "\n\n")
		if len(texts) != len(modes) {
			t.Fatalf("all printed %d tables for %d modes:\n%s", len(texts), len(modes), out.String())
		}
	}
	for i, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var tab table
			switch {
			case texts != nil:
				tab = parseTable(t, texts[i])
			case m.name == "fig3a":
				t.Skip("fig3a runs the figure's own sizes (n up to 8000)")
			default:
				tab = runMode(t, m.name)
			}
			if want := "# " + m.name + ": " + m.title; !strings.HasPrefix(tab.header, want) {
				t.Fatalf("header %q, want prefix %q", tab.header, want)
			}
			if len(tab.rows) == 0 {
				t.Fatal("no data rows")
			}
		})
	}
}

// The frontier mode is three BuildSweep calls, so at every budget its cost
// and terms columns are Build's at that budget, for both served families
// (to the six digits the CSV carries; TestConformance at the
// root holds BuildSweep to Build bit for bit).
func TestFrontierMatchesBuild(t *testing.T) {
	tab := runMode(t, "frontier")
	src, _ := (&config{seed: 42}).linkage(512)
	opts := map[string][]probsyn.BuildOption{
		"histogram": nil,
		"wavelet":   {probsyn.WithWavelet()},
	}
	seen := map[string]int{}
	for _, row := range tab.rows {
		family, budget, terms, cost := row[0], row[1], row[2], row[3]
		seen[family]++
		o, ok := opts[family]
		if !ok {
			continue
		}
		b, err := strconv.Atoi(budget)
		if err != nil || b != seen[family] {
			t.Fatalf("%s: budget %q at row %d", family, budget, seen[family])
		}
		syn, err := probsyn.Build(src, probsyn.SAE, b, append(o, probsyn.WithParams(probsyn.Params{C: 0.5}))...)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("%.6g", syn.ErrorCost()); cost != want || terms != fmt.Sprint(syn.Terms()) {
			t.Fatalf("%s B=%d: printed cost %s terms %s, Build has %s and %d", family, b, cost, terms, want, syn.Terms())
		}
	}
	for family := range opts {
		if seen[family] != 32 {
			t.Fatalf("%s: %d rows, want budgets 1..32", family, seen[family])
		}
	}
	if len(seen) != len(opts) {
		t.Fatalf("series %v, want only %d families", seen, len(opts))
	}
}

// Optimality makes both theorems, so a failure is a bug: in every Figure 2
// panel the probabilistic histogram is no worse than any heuristic's at any
// budget, and its error does not grow with the budget.
func TestFig2Orderings(t *testing.T) {
	for _, name := range []string{"fig2a", "fig2b", "fig2c", "fig2d", "fig2e", "fig2f"} {
		tab := runMode(t, name)
		if len(tab.cols) != 4 || tab.cols[1] != "Probabilistic" {
			t.Fatalf("%s: columns %v", name, tab.cols)
		}
		for i := range tab.rows {
			prob := tab.float(t, i, "Probabilistic")
			for _, other := range tab.cols[2:] {
				if v := tab.float(t, i, other); v < prob {
					t.Errorf("%s B=%s: %s %v beats Probabilistic %v", name, tab.rows[i][0], other, v, prob)
				}
			}
			if i > 0 && prob > tab.float(t, i-1, "Probabilistic") {
				t.Errorf("%s: Probabilistic error grows at B=%s", name, tab.rows[i][0])
			}
		}
	}
}

// A missing or unknown mode is an error from run, not an exit under it.
func TestBadModeIsAnError(t *testing.T) {
	for _, args := range [][]string{nil, {"fig9"}, {"fig2a", "fig2b"}, {"-no-such-flag", "fig2a"}} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote %q to stdout", args, out.String())
		}
	}
}
