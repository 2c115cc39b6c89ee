// Package gen generates probabilistic datasets shaped like the paper's two
// evaluation workloads (§5) plus generic synthetic distributions. The real
// inputs — the MystiQ movie-linkage data and the MayBMS/TPC-H lineitem
// data — are not redistributable; these generators match their published
// summary statistics and model semantics (see DESIGN.md, "Data-availability
// substitutions"). All generators are deterministic given the *rand.Rand.
package gen

import (
	"math"
	"math/rand"

	"probsyn/internal/pdata"
)

// MystiQConfig parameterizes the movie-linkage-shaped generator.
type MystiQConfig struct {
	// N is the number of distinct items (the paper uses subsets of 27,700,
	// with n = 10^4 in Figure 2 and n = 2^15 in Figure 4).
	N int
	// TuplesPerItem is the mean number of candidate-match tuples per item
	// (the paper's dataset has 127,000 / 27,700 ≈ 4.6).
	TuplesPerItem float64
	// MaxTuplesPerItem caps the per-item tuple count (0 means 4x the mean).
	MaxTuplesPerItem int
}

// DefaultMystiQ mirrors the published dataset's summary statistics at a
// configurable domain size.
func DefaultMystiQ(n int) MystiQConfig {
	return MystiQConfig{N: n, TuplesPerItem: 4.6}
}

// MystiQLinkage generates a basic-model relation shaped like record-linkage
// output: each item has a heavy-tailed number of candidate-match tuples
// whose probabilities decay with rank (the best match is confident, the
// tail is noise), and match counts drift smoothly along the domain so that
// neighbouring items behave similarly — the structure histograms exploit.
func MystiQLinkage(rng *rand.Rand, cfg MystiQConfig) *pdata.Basic {
	n := cfg.N
	maxT := cfg.MaxTuplesPerItem
	if maxT <= 0 {
		maxT = int(6*cfg.TuplesPerItem) + 1
	}
	b := &pdata.Basic{N: n}
	// Smooth domain modulation: superposed waves plus a few step changes,
	// so expected frequencies have both gradual and abrupt structure.
	// Per-item noise is kept small — linkage output for neighbouring
	// entities is similar — which is what lets histograms compress the
	// relation, as on the paper's real data (§5.1, Figure 2: the optimal
	// method approaches the minimum achievable error by B ≈ n/16).
	steps := makeSteps(rng, n, 8)
	for i := 0; i < n; i++ {
		x := float64(i) / float64(n)
		mod := 0.6 + 0.4*math.Sin(2*math.Pi*x*2) +
			0.25*math.Sin(2*math.Pi*x*5) + steps[i]
		if mod < 0.05 {
			mod = 0.05
		}
		// Squaring makes popularity heavy-tailed: hot regions collect many
		// candidate matches (as popular movies do), so cross-item structure
		// grows quadratically while per-item variance grows linearly.
		mod = mod * mod
		mean := cfg.TuplesPerItem * mod
		// Rank-decaying confidences: linkage produces mostly confident
		// leading matches (p near 1, hence low per-tuple variance p(1-p))
		// trailing off linearly into noise candidates. Match quality u
		// drifts smoothly along the domain with light per-item jitter, and
		// the fractional part of the candidate count becomes one weak
		// trailing candidate, so expected frequency varies smoothly instead
		// of jumping by whole tuples.
		k := int(mean)
		frac := mean - float64(k)
		if k > maxT {
			k, frac = maxT, 0
		}
		u := 0.85 + 0.1*math.Sin(2*math.Pi*x*3) + 0.06*(rng.Float64()-0.5)
		conf := func(r float64) float64 {
			p := u * (1 - 0.06*r)
			if p > 0.98 {
				p = 0.98
			} else if p < 0.05 {
				p = 0.05
			}
			return p
		}
		for r := 0; r < k; r++ {
			b.Tuples = append(b.Tuples, pdata.BasicTuple{Item: i, Prob: conf(float64(r))})
		}
		if frac > 1e-9 {
			if p := frac * conf(float64(k)); p > 0.005 {
				b.Tuples = append(b.Tuples, pdata.BasicTuple{Item: i, Prob: p})
			}
		}
	}
	return b
}

// TPCHConfig parameterizes the MayBMS/TPC-H-shaped tuple pdf generator.
type TPCHConfig struct {
	// N is the partkey domain size.
	N int
	// M is the number of uncertain lineitem tuples.
	M int
	// Alternatives is the number of equiprobable partkey alternatives per
	// tuple (MayBMS's repair-key produces uniform alternative sets).
	Alternatives int
	// ZipfS is the skew of partkey popularity (1.1 is a mild TPC-H-like
	// skew; must be > 1 for rand.Zipf).
	ZipfS float64
	// Spread is the maximum distance between a tuple's alternatives along
	// the domain; 0 means unbounded (alternatives anywhere). Small spreads
	// produce boundary-straddling tuples concentrated near their seed —
	// the regime where the closed-form SSE cost deviates (DESIGN.md #3).
	Spread int
}

// DefaultTPCH gives a mild-skew configuration with unbounded spread.
func DefaultTPCH(n, m int) TPCHConfig {
	return TPCHConfig{N: n, M: m, Alternatives: 4, ZipfS: 1.1}
}

// TPCHLineitem generates a tuple pdf relation: M uncertain tuples, each a
// uniform pdf over Alternatives distinct partkeys. Partkey popularity
// mixes a broad near-uniform base (TPC-H lineitem references parts almost
// uniformly) with a Zipf hotspot component, scattered over the domain, so
// the expected frequencies carry energy across many scales rather than
// collapsing into a handful of wavelet coefficients.
func TPCHLineitem(rng *rand.Rand, cfg TPCHConfig) *pdata.TuplePDF {
	n := cfg.N
	// A tuple's alternatives are distinct items, so there are at most n of
	// them; capping here changes no draw wherever n >= Alternatives.
	alts := min(max(cfg.Alternatives, 1), n)
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(n-1))
	scatter := rng.Perm(n) // decouple Zipf rank from domain position
	smooth := makeSteps(rng, n, 16)
	draw := func() int {
		if rng.Float64() < 0.7 {
			// near-uniform base, modulated by a piecewise level so the
			// domain has regions of higher and lower traffic
			for {
				i := rng.Intn(n)
				if rng.Float64() < 0.25+0.75*smooth[i] {
					return i
				}
			}
		}
		return scatter[int(zipf.Uint64())]
	}
	// window maps an offset d from a tuple's seed item into the domain:
	// reflected at either edge, then clamped, which only a domain smaller
	// than the window needs.
	window := func(seed, d int) int {
		item := seed + d
		if item < 0 {
			item = -item
		}
		if item >= n {
			item = 2*(n-1) - item
		}
		return min(max(item, 0), n-1)
	}
	// exhausted reports whether seen holds every item a draw from seed's
	// window, or the probe after it, can reach: no draw can add an item.
	exhausted := func(seed int, seen map[int]bool) bool {
		for d := -cfg.Spread; d <= cfg.Spread; d++ {
			if w := window(seed, d); !seen[w] || !seen[(w+1)%n] {
				return false
			}
		}
		return true
	}
	tp := &pdata.TuplePDF{N: n, Tuples: make([]pdata.Tuple, cfg.M)}
	for t := 0; t < cfg.M; t++ {
		seed := draw()
		seen := make(map[int]bool, alts)
		tuple := pdata.Tuple{Alts: make([]pdata.Alternative, 0, alts)}
		p := 1.0 / float64(alts)
		for len(tuple.Alts) < alts {
			var item int
			if cfg.Spread > 0 {
				item = window(seed, rng.Intn(2*cfg.Spread+1)-cfg.Spread)
			} else {
				item = draw()
			}
			if seen[item] {
				// Resample; with tiny domains fall back to a linear probe.
				item = (item + 1) % n
				if seen[item] {
					if cfg.Spread == 0 || !exhausted(seed, seen) {
						continue
					}
					// A window at a domain edge can reach fewer items than
					// the tuple needs: take the next unseen one, drawing
					// nothing, so every tuple that completed before draws
					// as it did.
					for seen[item] {
						item = (item + 1) % n
					}
				}
			}
			seen[item] = true
			tuple.Alts = append(tuple.Alts, pdata.Alternative{Item: item, Prob: p})
		}
		tp.Tuples[t] = tuple
	}
	return tp
}

// SensorConfig parameterizes the value-pdf sensor-grid generator.
type SensorConfig struct {
	// N is the number of sensors (domain items).
	N int
	// Levels is the number of discrete frequency values per sensor pdf.
	Levels int
	// MaxValue scales the underlying signal.
	MaxValue float64
	// Noise is the relative dispersion of each sensor's reading pdf.
	Noise float64
}

// DefaultSensor returns a moderate configuration.
func DefaultSensor(n int) SensorConfig {
	return SensorConfig{N: n, Levels: 5, MaxValue: 20, Noise: 0.25}
}

// SensorGrid generates a value pdf relation modelling noisy sensor
// readings: each item's frequency pdf is a discretized bell around a
// smooth, piecewise-shifted signal — the motivating workload for the value
// pdf model (§2.1).
func SensorGrid(rng *rand.Rand, cfg SensorConfig) *pdata.ValuePDF {
	n := cfg.N
	vp := &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
	steps := makeSteps(rng, n, 6)
	for i := 0; i < n; i++ {
		signal := cfg.MaxValue * (0.5 + 0.3*math.Sin(2*math.Pi*float64(i)/float64(n)*5) + 0.5*steps[i])
		if signal < 0 {
			signal = 0
		}
		spread := cfg.Noise*signal + 0.5
		entries := make([]pdata.FreqProb, 0, cfg.Levels)
		totalW := 0.0
		weights := make([]float64, cfg.Levels)
		values := make([]float64, cfg.Levels)
		for l := 0; l < cfg.Levels; l++ {
			off := (float64(l) - float64(cfg.Levels-1)/2) * spread / float64(cfg.Levels)
			v := signal + off
			if v < 0 {
				v = 0
			}
			values[l] = math.Round(v*4) / 4 // quarter-step grid keeps |V| modest
			w := math.Exp(-0.5 * (off / (spread/2 + 1e-9)) * (off / (spread/2 + 1e-9)))
			weights[l] = w
			totalW += w
		}
		// Leave a little mass for "sensor dropped the reading" (freq 0).
		keep := 0.9 + 0.1*rng.Float64()
		for l := 0; l < cfg.Levels; l++ {
			entries = append(entries, pdata.FreqProb{Freq: values[l], Prob: keep * weights[l] / totalW})
		}
		vp.Items[i] = pdata.ItemPDF{Entries: entries}
	}
	return vp
}

// makeSteps returns a piecewise-constant random step signal in [0, 1]
// with the given number of plateaus.
func makeSteps(rng *rand.Rand, n, pieces int) []float64 {
	out := make([]float64, n)
	if pieces < 1 {
		pieces = 1
	}
	bounds := make([]int, pieces+1)
	bounds[pieces] = n
	for k := 1; k < pieces; k++ {
		bounds[k] = rng.Intn(n)
	}
	sortInts(bounds)
	for k := 0; k < pieces; k++ {
		level := rng.Float64()
		for i := bounds[k]; i < bounds[k+1]; i++ {
			out[i] = level
		}
	}
	return out
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
