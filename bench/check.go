package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

// goldenSeed is the seed golden.json was recorded at. On every seed a
// set-up checks each reference build against an independent
// recomputation; on this one it also checks the costs against the
// recorded ones, which catches a change that moves both the same way.
const goldenSeed = 1

//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed  int64                         `json:"seed"`
	Costs map[string]map[string]float64 `json:"costs"`
}

// goldenTol is the relative tolerance for exact builds: the DPs are
// deterministic, the slack is for a compiler that fuses differently.
const goldenTol = 1e-9

func checkGolden(workload string, got []goldenEntry) error {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	want := g.Costs[workload]
	if len(want) != len(got) {
		return fmt.Errorf("golden.json records %d costs, set-up built %d (regenerate with `bench golden` only if the workload's inputs were meant to change)", len(want), len(got))
	}
	for _, e := range got {
		w, ok := want[e.Name]
		switch {
		case !ok:
			return fmt.Errorf("golden.json has no cost for %s", e.Name)
		case e.Approx && e.Cost <= w*(1+goldenTol):
		case !e.Approx && closeRel(e.Cost, w, goldenTol):
		default:
			return fmt.Errorf("%s: cost %v, golden.json records %v", e.Name, e.Cost, w)
		}
	}
	return nil
}

// goldenCmd rewrites golden.json from the current tree (run from the
// repository root, like everything else).
func goldenCmd() error {
	root, err := scratchRoot()
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	g := goldenFile{Seed: goldenSeed, Costs: map[string]map[string]float64{}}
	for _, wl := range workloads {
		inst, err := wl.setup(goldenSeed, env{dir: filepath.Join(root, wl.Name), workers: runtime.NumCPU(), check: true})
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		costs := map[string]float64{}
		for _, e := range inst.(costed).Costs() {
			costs[e.Name] = e.Cost
		}
		g.Costs[wl.Name] = costs
		if err := inst.Close(); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("bench/golden.json", append(out, '\n'), 0o644)
}
