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

// TestPoisonedSlabReuse drives the paths that reuse a sweep's memory —
// Build and the wavelet package's single-budget builders (buildAt), which
// refill a set from NewSweep's pool and put it back, and a live frontier,
// which refills its one set on every mutation — over every DP family at
// interleaved domain sizes, three builds at a time, once with every array
// a set hands a sweep poisoned with NaN (−1 in an index array) and once
// with zeros (what a fresh array holds). The bytes must not move: a NaN
// read before it is written would change a decision or a cost. Each live
// sequence also holds every budget to a fresh BuildSweep after every
// step. It also checks that a released sweep refuses to extract.
func TestPoisonedSlabReuse(t *testing.T) {
	type job struct {
		name string
		run  func() ([]byte, error)
	}
	var jobs []job
	srcs := map[int]*probsyn.ValuePDF{}
	for _, n := range []int{60, 64, 508, 512, 2048} {
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
		// Live sequences cross a power of two, 60 -> 68 and 508 -> 516
		// items, so each set regrows once and is refilled at both shapes.
		for _, n := range []int{60, 508} {
			add := func(name string, m probsyn.Metric, q int) {
				jobs = append(jobs, job{fmt.Sprintf("BuildLive/%s/n=%d/workers=%d", name, n, workers), func() ([]byte, error) {
					return liveSequence(srcs[n], m, q, par)
				}})
			}
			add("SSE", probsyn.SSE, 0)
			for _, m := range []probsyn.Metric{probsyn.SAE, probsyn.MAE, probsyn.SSRE} {
				if n < 508 || workers == 2 { // exact at 1024 padded items: once
					add(fmt.Sprintf("restricted-%v", m), m, 0)
				}
				add(fmt.Sprintf("q8-%v", m), m, 8)
				add(fmt.Sprintf("q32-%v", m), m, 32)
			}
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
			t.Errorf("%s: the bytes built on NaN-filled arrays differ from those built on zeroed arrays", j.name)
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

// liveSequence runs two 4-item appends and two updates through a live
// wavelet frontier of metric m over src (the restricted DP, quantized when
// q > 0; the greedy for SSE), holds every budget's codec bytes to a fresh
// BuildSweep over the same data after every step, and returns them.
func liveSequence(src *probsyn.ValuePDF, m probsyn.Metric, q int, par probsyn.BuildOption) ([]byte, error) {
	const B = 16
	opts := []probsyn.BuildOption{probsyn.WithWavelet(), par}
	if q > 0 {
		opts = append(opts, probsyn.WithQuantize(q))
	}
	live, err := probsyn.BuildLive(src, m, B, opts...)
	if err != nil {
		return nil, err
	}
	cur := src.Clone()
	pdfs := gen.SensorGrid(rand.New(rand.NewSource(int64(src.N))), gen.DefaultSensor(10)).Items
	var out []byte
	for step := 0; step <= 4; step++ {
		switch step {
		case 1, 3:
			items := pdfs[5*(step/2) : 5*(step/2)+4]
			err = live.Append(items)
			cur.Items = append(cur.Items, items...)
			cur.N = len(cur.Items)
		case 2, 4:
			i := cur.N / step
			err = live.Update(i, pdfs[5*(step/2)-1])
			cur.Items[i] = pdfs[5*(step/2)-1]
		}
		if err != nil {
			return nil, err
		}
		fresh, err := probsyn.BuildSweep(cur, m, B, opts...)
		if err != nil {
			return nil, err
		}
		if live.Bmax() != fresh.Bmax() {
			return nil, fmt.Errorf("step %d: live Bmax %d, fresh %d", step, live.Bmax(), fresh.Bmax())
		}
		for b := 1; b <= live.Bmax(); b++ {
			var enc [2][]byte
			for k, f := range []probsyn.Frontier{live, fresh} {
				syn, err := f.Synopsis(b)
				if err != nil {
					return nil, err
				}
				if enc[k], err = probsyn.MarshalSynopsis(syn); err != nil {
					return nil, err
				}
			}
			if !bytes.Equal(enc[0], enc[1]) {
				return nil, fmt.Errorf("step %d: budget %d's bytes differ from a fresh BuildSweep's", step, b)
			}
			out = append(out, enc[0]...)
		}
	}
	return out, nil
}
