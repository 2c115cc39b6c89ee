package probsyn_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/gen"
	"probsyn/internal/wavelet"
)

// TestPoisonedSlabReuse drives the three paths that hand a tree DP's slabs
// back to the cache — Build, the wavelet package's single-budget builders
// (buildAt) and a live frontier replacing its sweep on every mutation —
// over every DP family at interleaved domain sizes, three builds at a
// time, once with every slab the cache hands out filled with NaN and once
// with zeros (what a fresh slab holds). The bytes must not move: a NaN
// read before it is written would change a decision or a cost. It also
// checks that a released sweep refuses to extract.
func TestPoisonedSlabReuse(t *testing.T) {
	type job struct {
		name string
		run  func() ([]byte, error)
	}
	var jobs []job
	srcs := map[int]*probsyn.ValuePDF{}
	for _, n := range []int{64, 512, 2048} {
		srcs[n] = gen.SensorGrid(rand.New(rand.NewSource(int64(n))), gen.DefaultSensor(n))
	}
	p := probsyn.DefaultParams()
	for _, workers := range []int{1, 2} {
		par := probsyn.WithParallelism(workers)
		for i, n := range []int{512, 64, 2048, 64, 512} {
			src := srcs[n]
			// Every size goes through both entry points across the grid.
			viaBuild := (i+workers)%2 == 0
			add := func(name string, m probsyn.Metric, B, q int) {
				if viaBuild {
					opts := []probsyn.BuildOption{probsyn.WithWavelet(), par}
					if q > 0 {
						opts = append(opts, probsyn.WithQuantize(q))
					}
					jobs = append(jobs, job{fmt.Sprintf("Build/%s/n=%d/workers=%d", name, n, workers), func() ([]byte, error) {
						return encode(probsyn.Build(src, m, B, opts...))
					}})
					return
				}
				pool := engine.New(engine.Options{Workers: workers})
				jobs = append(jobs, job{fmt.Sprintf("buildAt/%s/n=%d/workers=%d", name, n, workers), func() ([]byte, error) {
					if q > 0 {
						syn, _, err := wavelet.BuildRestrictedApproxPool(src, m, p, B, q, pool)
						return encode(syn, err)
					}
					syn, _, err := wavelet.BuildRestrictedPool(src, m, p, B, pool)
					return encode(syn, err)
				}})
			}
			if n < 2048 || workers == 2 { // the exact DP's state space is quadratic in n
				add("restricted-SAE", probsyn.SAE, 16, 0)
				add("restricted-MAE", probsyn.MAE, 16, 0)
			}
			add("q8-SAE", probsyn.SAE, 32, 8)
			add("q32-SAE", probsyn.SAE, 32, 32)
		}
		for _, q := range []int{0, 8} {
			jobs = append(jobs, job{fmt.Sprintf("BuildLive/q%d/workers=%d", q, workers), func() ([]byte, error) {
				return liveSequence(srcs[64], q, par)
			}})
		}
	}
	run := func(fill float64) [][]byte {
		defer wavelet.SetSlabFill(fill)()
		out := make([][]byte, len(jobs))
		next := make(chan int)
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range next {
					var err error
					if out[k], err = jobs[k].run(); err != nil {
						t.Errorf("%s: %v", jobs[k].name, err)
					}
				}
			}()
		}
		for k := range jobs {
			next <- k
		}
		close(next)
		wg.Wait()
		return out
	}
	poisoned, zeroed := run(math.NaN()), run(0)
	for k, j := range jobs {
		if !bytes.Equal(poisoned[k], zeroed[k]) {
			t.Errorf("%s: the bytes built on NaN-filled slabs differ from those built on zeroed slabs", j.name)
		}
	}

	sw, err := wavelet.NewSweep(srcs[64], wavelet.RestrictedFamily, probsyn.SAE, p, 8, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	stats, bound := sw.Stats(), sw.ErrorBound()
	sw.Release()
	if _, err := sw.Synopsis(8); err == nil {
		t.Error("a released sweep extracted a synopsis")
	}
	if _, err := sw.Cost(8); err == nil {
		t.Error("a released sweep priced a budget")
	}
	if sw.Bmax() != 8 || sw.Stats() != stats || sw.ErrorBound() != bound {
		t.Errorf("a released sweep forgot its Bmax, Stats or ErrorBound")
	}
	sw.Release() // a second release is a no-op
}

// encode is the codec bytes of a build's synopsis.
func encode(syn probsyn.Synopsis, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return probsyn.MarshalSynopsis(syn)
}

// liveSequence runs a fixed append/update sequence through a live
// restricted SAE wavelet frontier (quantized when q > 0) and returns the
// codec bytes of its top-budget and mid-budget synopses after each step.
func liveSequence(src *probsyn.ValuePDF, q int, par probsyn.BuildOption) ([]byte, error) {
	opts := []probsyn.BuildOption{probsyn.WithWavelet(), par}
	if q > 0 {
		opts = append(opts, probsyn.WithQuantize(q))
	}
	live, err := probsyn.BuildLive(src, probsyn.SAE, 16, opts...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(35))
	var out []byte
	for step := 0; step < 8; step++ {
		if step > 0 {
			if step%2 == 1 {
				err = live.Append([]probsyn.ItemPDF{liveRandItem(rng), liveRandItem(rng)})
			} else {
				err = live.Update(rng.Intn(live.Domain()), liveRandItem(rng))
			}
			if err != nil {
				return nil, err
			}
		}
		for _, b := range []int{live.Bmax(), live.Bmax() / 2} {
			syn, err := live.Synopsis(b)
			if err != nil {
				return nil, err
			}
			enc, err := probsyn.MarshalSynopsis(syn)
			if err != nil {
				return nil, err
			}
			out = append(out, enc...)
		}
	}
	return out, nil
}
