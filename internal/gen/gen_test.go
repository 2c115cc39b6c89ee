package gen

import (
	"math"
	"math/rand"
	"testing"

	"probsyn/internal/pdata"
)

func TestMystiQLinkageShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultMystiQ(2000)
	b := MystiQLinkage(rng, cfg)
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.N != 2000 {
		t.Fatalf("N = %d", b.N)
	}
	perItem := float64(len(b.Tuples)) / float64(b.N)
	// Mean tuples per item should land near the configured 4.6; the
	// squared heavy-tail modulation averages to ~1.5x the nominal mean.
	if perItem < 2.5 || perItem > 9.0 {
		t.Fatalf("tuples per item = %v, want within [2.5, 9]", perItem)
	}
	// probabilities must be rank-decaying per item: first tuple of an item
	// has the largest probability.
	last := -1
	var prev float64
	for _, tp := range b.Tuples {
		if tp.Item != last {
			last, prev = tp.Item, tp.Prob
			continue
		}
		if tp.Prob > prev+1e-12 {
			t.Fatalf("item %d: probabilities not rank-decaying (%v after %v)", tp.Item, tp.Prob, prev)
		}
		prev = tp.Prob
	}
}

func TestMystiQDeterministicWithSeed(t *testing.T) {
	a := MystiQLinkage(rand.New(rand.NewSource(7)), DefaultMystiQ(500))
	b := MystiQLinkage(rand.New(rand.NewSource(7)), DefaultMystiQ(500))
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("tuple counts differ: %d vs %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if a.Tuples[i] != b.Tuples[i] {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

func TestTPCHLineitemShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cfg := DefaultTPCH(1000, 3000)
	tp := TPCHLineitem(rng, cfg)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tp.Tuples) != 3000 {
		t.Fatalf("tuples = %d", len(tp.Tuples))
	}
	for k := range tp.Tuples {
		alts := tp.Tuples[k].Alts
		if len(alts) != cfg.Alternatives {
			t.Fatalf("tuple %d has %d alternatives, want %d", k, len(alts), cfg.Alternatives)
		}
		seen := map[int]bool{}
		for _, a := range alts {
			if math.Abs(a.Prob-0.25) > 1e-12 {
				t.Fatalf("alternative probability %v, want 0.25", a.Prob)
			}
			if seen[a.Item] {
				t.Fatalf("tuple %d repeats item %d", k, a.Item)
			}
			seen[a.Item] = true
		}
	}
	// Popularity skew: hotspot partkeys must carry far more expected mass
	// than the typical partkey (the Zipf component of the mix).
	e := tp.ExpectedFreqs()
	maxE, total := 0.0, 0.0
	for _, v := range e {
		total += v
		if v > maxE {
			maxE = v
		}
	}
	mean := total / float64(len(e))
	if maxE < 5*mean {
		t.Fatalf("max expected mass %v vs mean %v: no hotspot skew", maxE, mean)
	}
}

func TestTPCHSpreadBoundsAlternatives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := TPCHConfig{N: 1000, M: 500, Alternatives: 3, ZipfS: 1.2, Spread: 10}
	tp := TPCHLineitem(rng, cfg)
	for k := range tp.Tuples {
		alts := tp.Tuples[k].Alts
		if len(alts) == 0 {
			t.Fatalf("tuple %d empty", k)
		}
		lo, hi := alts[0].Item, alts[0].Item
		for _, a := range alts[1:] {
			lo, hi = min(lo, a.Item), max(hi, a.Item)
		}
		if hi-lo > 4*cfg.Spread { // reflection at edges can double the window
			t.Fatalf("tuple %d spans [%d,%d], exceeds spread bound", k, lo, hi)
		}
	}
}

func TestSensorGridShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultSensor(800)
	vp := SensorGrid(rng, cfg)
	if err := vp.Validate(); err != nil {
		t.Fatal(err)
	}
	if vp.N != 800 {
		t.Fatalf("N = %d", vp.N)
	}
	nonZeroItems := 0
	for i := range vp.Items {
		if len(vp.Items[i].Entries) != cfg.Levels {
			t.Fatalf("item %d has %d levels, want %d", i, len(vp.Items[i].Entries), cfg.Levels)
		}
		if vp.Items[i].Mean() > 0 {
			nonZeroItems++
		}
		// some uncertainty must remain (this is the point of the model)
		if z := vp.Items[i].ZeroProb(); z < 0 || z > 0.2 {
			t.Fatalf("item %d zero mass %v outside [0, 0.2]", i, z)
		}
	}
	if nonZeroItems < 700 {
		t.Fatalf("only %d items carry signal", nonZeroItems)
	}
}

func TestSensorGridSmoothness(t *testing.T) {
	// Neighbouring items should usually have close means: count large jumps.
	rng := rand.New(rand.NewSource(5))
	vp := SensorGrid(rng, DefaultSensor(1000))
	e := vp.ExpectedFreqs()
	jumps := 0
	for i := 1; i < len(e); i++ {
		if math.Abs(e[i]-e[i-1]) > 3 {
			jumps++
		}
	}
	if jumps > 25 {
		t.Fatalf("%d large jumps; the signal should be piecewise smooth", jumps)
	}
}

func TestMakeSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := makeSteps(rng, 100, 5)
	if len(s) != 100 {
		t.Fatalf("len = %d", len(s))
	}
	distinct := map[float64]bool{}
	for _, v := range s {
		if v < 0 || v > 1 {
			t.Fatalf("step level %v outside [0,1]", v)
		}
		distinct[v] = true
	}
	if len(distinct) < 2 {
		t.Fatal("steps degenerate to a constant")
	}
}

// drawCap is a rand.Source that fails past a budget of draws: a generator
// caught in a loop that draws fails a fuzz run instead of hanging it.
type drawCap struct {
	rand.Source
	left int
}

func (d *drawCap) Int63() int64 {
	if d.left--; d.left < 0 {
		panic("gen: draw budget exhausted")
	}
	return d.Source.Int63()
}

// FuzzGenerators runs each generator over fuzzed shapes — domains down to
// one item, tuple counts, TPC-H alternative counts and spread windows
// (negative, or wider than the domain) — and requires a valid source over
// n items within a draw budget, every TPC-H tuple over min(alternatives,
// n) distinct items. The corpus is the tiny domains and edge windows
// where the distinct-alternative loop once had no exit.
func FuzzGenerators(f *testing.F) {
	const mystiq, tpch, sensor = 0, 1, 2
	add := func(kind, n, m, spread, alts int, seed int64) {
		f.Add(uint8(kind), uint8(n-1), uint16(m), int8(spread), uint8(alts), seed)
	}
	for n := 1; n <= 3; n++ {
		add(tpch, n, 4*n, 0, 4, 1)
	}
	for spread := 1; spread <= 3; spread++ {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 64} {
			add(tpch, n, 4*n, spread, 4, 1)
		}
	}
	add(tpch, 9, 30, -2, 6, 4)
	add(mystiq, 40, 0, 0, 0, 2)
	add(sensor, 33, 0, 0, 3, 3)
	// n8 is n-1: every byte decodes to a domain of 1 to 64 items.
	f.Fuzz(func(t *testing.T, kind, n8 uint8, m16 uint16, spread int8, alts8 uint8, seed int64) {
		n, m, alts := 1+int(n8)%64, int(m16)%(4*64+1), int(alts8)%8
		// Past its budget the source panics, and the fuzz run fails on the
		// input instead of hanging.
		rng := rand.New(&drawCap{Source: rand.NewSource(seed), left: 1024 + 256*(n+m*max(alts, 1))})
		var got pdata.Source
		switch kind % 3 {
		case mystiq:
			got = MystiQLinkage(rng, DefaultMystiQ(n))
		case tpch:
			cfg := DefaultTPCH(n, m)
			cfg.Spread, cfg.Alternatives = int(spread), alts
			tp := TPCHLineitem(rng, cfg)
			want := min(max(alts, 1), n)
			for k, tuple := range tp.Tuples {
				seen := map[int]bool{}
				for _, a := range tuple.Alts {
					seen[a.Item] = true
				}
				if len(tuple.Alts) != want || len(seen) != want {
					t.Fatalf("n=%d spread=%d alternatives=%d: tuple %d has %d alternatives over %d items, want %d distinct", n, spread, alts, k, len(tuple.Alts), len(seen), want)
				}
			}
			got = tp
		default:
			cfg := DefaultSensor(n)
			cfg.Levels = alts
			got = SensorGrid(rng, cfg)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("kind %d, n=%d m=%d spread=%d alternatives=%d: %v", kind%3, n, m, spread, alts, err)
		}
		if got.Domain() != n {
			t.Fatalf("kind %d: domain %d, want %d", kind%3, got.Domain(), n)
		}
	})
}
