package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// noiseCmd measures how well the benchmark repeats on the current tree.
// It runs every workload -runs times, pass by pass (all workloads, then
// all again: A/B/A/B), each run a fresh process of runSeconds.
//
// With two runs (the default) both use goldenSeed, and every end-to-end
// metric's two values must differ by no more than its bound — for the two
// that a seed determines, allocation and artifact size, by no more than
// the tighter equal-seed bound. With more, run r uses goldenSeed+r and
// the check is the rule the benchmark itself is accepted by: the distance
// between the first and third quartile of each metric, as a share of its
// median, stays within the bound (set-up time is reported, not checked);
// the table also flags spreads above a third of the bound, the margin a
// new workload should be sized to.
func noiseCmd(args []string) error {
	fs := flag.NewFlagSet("bench noise", flag.ContinueOnError)
	runs := fs.Int("runs", 2, "runs per workload: 2 compares a pair at one seed, more reports the quartile spread over as many seeds")
	only := fs.String("workloads", "", "comma-separated subset (default: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("noise: -runs %d, want at least 2", *runs)
	}
	pair := *runs == 2
	var names []string
	for _, w := range workloads {
		if *only == "" || strings.Contains(","+*only+",", ","+w.Name+",") {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("noise: no workload matches %q", *only)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	var slowdowns []float64                     // every run's median host slowdown
	for r := 0; r < *runs; r++ {
		seed := int64(goldenSeed)
		if !pair {
			seed += int64(r)
		}
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "noise: pass %d/%d %s seed %d\n", r+1, *runs, name, seed)
			t0 := time.Now()
			got, slowdown, err := childRun(exe, name, seed)
			if err != nil {
				return fmt.Errorf("noise: %s: %w", name, err)
			}
			slowdowns = append(slowdowns, slowdown)
			fmt.Fprintf(os.Stderr, " %.1f s, host slowdown %.3f:", time.Since(t0).Seconds(), slowdown)
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for _, spec := range endToEndSpec {
				v := got[spec.Name]
				values[name][spec.Name] = append(values[name][spec.Name], v)
				fmt.Fprintf(os.Stderr, " %s=%.6g", spec.Name, v)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	sort.Float64s(slowdowns)
	fmt.Printf("host slowdown over the %d runs: %.3f to %.3f, median %.3f\n", len(slowdowns), slowdowns[0], slowdowns[len(slowdowns)-1], median(slowdowns))
	bad := 0
	fmt.Printf("%-13s %-16s %14s %14s %14s %9s %7s\n", "workload", "metric", "first/q1", "second/q3", "median", "spread", "bound")
	for _, name := range names {
		for _, spec := range endToEndSpec {
			vs := values[name][spec.Name]
			bound := spec.Bound
			a, b, spread := quartileSpread(vs)
			if pair {
				a, b, spread = pairSpread(vs)
				if spec.EqualSeedBound > 0 {
					bound = spec.EqualSeedBound
				}
			}
			note := ""
			switch {
			case spread > bound && (pair || spec.Name != "setup_s"):
				note = "  OVER BOUND"
				bad++
			case spread > bound/3:
				note = "  over a third of the bound"
			}
			fmt.Printf("%-13s %-16s %14.6g %14.6g %14.6g %8.2f%% %6.0f%%%s\n", name, spec.Name, a, b, median(vs), 100*spread, 100*bound, note)
		}
	}
	if bad > 0 {
		return fmt.Errorf("noise: %d metric(s) over their bound", bad)
	}
	return nil
}

// slowdownLine finds the host slowdown in a run's table.
var slowdownLine = regexp.MustCompile(`host slowdown ([0-9.]+),`)

// childRun runs one untraced run in a fresh process and returns its
// metrics and the median host slowdown it divided its times by. The child
// is waited for before this returns.
func childRun(exe, workload string, seed int64) (map[string]float64, float64, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(runSeconds), "--trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, 0, fmt.Errorf("last line of output: %w", err)
	}
	if !line.Correct {
		return nil, 0, fmt.Errorf("run reported incorrect outputs")
	}
	slowdown := 0.0
	if m := slowdownLine.FindSubmatch(stdout.Bytes()); m != nil {
		slowdown, _ = strconv.ParseFloat(string(m[1]), 64)
	}
	out := map[string]float64{}
	for name, m := range line.Metrics {
		out[name] = m.Value
	}
	return out, slowdown, nil
}

// pairSpread is the two values and their difference as a share of the
// smaller.
func pairSpread(vs []float64) (a, b, spread float64) {
	a, b = vs[0], vs[1]
	return a, b, math.Abs(a-b) / math.Min(math.Abs(a), math.Abs(b))
}

// quartileSpread is (q1, q3, (q3-q1)/median) with the quartiles of
// Python's statistics.quantiles(values, n=4) — the rule the benchmark is
// accepted by.
func quartileSpread(vs []float64) (q1, q3, spread float64) {
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	q := func(i int) float64 {
		m := len(x) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(x)-1 {
			j = len(x) - 1
		}
		delta := i*m - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	q1, q3 = q(1), q(3)
	return q1, q3, (q3 - q1) / math.Abs(median(x))
}
