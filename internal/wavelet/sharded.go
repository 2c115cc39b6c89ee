package wavelet

import (
	"fmt"
	"math"
	"sort"

	"probsyn/internal/engine"
	"probsyn/internal/haar"
	"probsyn/internal/metric"
	"probsyn/internal/numeric"
	"probsyn/internal/pdata"
)

// CheckShards validates a k-way split of the padded domain n: shard
// subtrees must tile the Haar tree, so k must be a power of two no
// larger than n.
func CheckShards(n, k int) error {
	if k < 2 {
		return fmt.Errorf("wavelet: sharded build needs k >= 2 shards, got %d", k)
	}
	if !haar.IsPow2(k) {
		return fmt.Errorf("wavelet: shard count %d not a power of two", k)
	}
	if k > n {
		return fmt.Errorf("wavelet: %d shards over padded domain %d (need k <= n)", k, n)
	}
	return nil
}

// globalIndex maps shard s's local detail coefficient i (level l within
// the width-w=N/k shard subtree) to its global Haar-tree index: the
// shard subtrees are the k subtrees rooted one level below the top
// tree, so local level l lands at global level log2(k)+l and shard s's
// block at that level starts at (k+s)·2^l.
func globalIndex(i, s, k int) int {
	l := haar.Level(i)
	return (k+s)<<l + (i - 1<<l)
}

// Shards is the k-way split of a source's padded domain that a sharded
// restricted build solves: shard s is the s-th block of width N/k, the
// leaves of the s-th Haar subtree one level below the k-coefficient top
// tree. Sweep solves one shard, Merge joins the shards' synopses under the
// top tree, and Penalty prices that top tree in the build's bound.
type Shards struct {
	vp   *pdata.ValuePDF // the padded source
	k    int
	kind metric.Kind
	p    metric.Params
	pes  []*PointErrors // pes[s] is set by Sweep(s), read by Penalty
}

// NewShards splits src's padded domain into k shards (see CheckShards).
func NewShards(src pdata.Source, kind metric.Kind, p metric.Params, k int) (*Shards, error) {
	vp := padValuePDF(pdata.AsValuePDF(src))
	if err := CheckShards(vp.N, k); err != nil {
		return nil, err
	}
	return &Shards{vp: vp, k: k, kind: kind, p: p, pes: make([]*PointErrors, k)}, nil
}

// N returns the padded domain size.
func (sh *Shards) N() int { return sh.vp.N }

// Sweep runs shard s's forced-root restricted sweep up to budget B: its
// local c0, the shard average, is retained at every budget, so each of its
// solutions composes with the top tree. Distinct shards may sweep
// concurrently.
func (sh *Shards) Sweep(s, B int, pool *engine.Pool) (*Sweep, error) {
	w := sh.vp.N / sh.k
	svp := &pdata.ValuePDF{N: w, Items: sh.vp.Items[s*w : (s+1)*w]}
	sw, pe, err := sweepDP(svp, RestrictedFamily, sh.kind, sh.p, B, 0, true, pool)
	if err != nil {
		return nil, err
	}
	sh.pes[s] = pe
	return sw, nil
}

// Merge joins one forced-root synopsis per shard into a synopsis over the
// padded domain with the given cost: the full k-coefficient top tree at
// its expected values (restricted-legal: by linearity of the transform
// over shard averages they are exactly the global expected coefficients)
// plus every piece's details at their global indices. Each piece's forced
// c0 trades 1:1 for its top-tree slot, so per-shard budgets summing to B
// make B terms.
func (sh *Shards) Merge(pieces []*Synopsis, cost float64) *Synopsis {
	k := sh.k
	avgs := make([]float64, k)
	for s, piece := range pieces {
		avgs[s] = piece.Values[0] // forced local c0 = shard average
	}
	top := haar.Forward(avgs)
	type cv struct {
		g int
		v float64
	}
	coefs := make([]cv, 0, k)
	for g := 0; g < k; g++ {
		coefs = append(coefs, cv{g, top[g]})
	}
	for s, piece := range pieces {
		for j := 1; j < len(piece.Indices); j++ {
			coefs = append(coefs, cv{globalIndex(piece.Indices[j], s, k), piece.Values[j]})
		}
	}
	sort.Slice(coefs, func(a, b int) bool { return coefs[a].g < coefs[b].g })
	merged := &Synopsis{
		N:       sh.vp.N,
		Indices: make([]int, len(coefs)),
		Values:  make([]float64, len(coefs)),
		Cost:    cost,
	}
	for j, c := range coefs {
		merged.Indices[j] = c.g
		merged.Values[j] = c.v
	}
	return merged
}

// Penalty is the bound's top-tree term, once every shard has swept. The
// unsharded restricted optimum S* plus the full top tree is a forced
// per-shard solution of at most B+k terms, so the allocation at total B+k
// costs at most err(S* ∪ top) <= OPT + Penalty.
func (sh *Shards) Penalty() float64 {
	return forcedTopPenalty(sh.vp, sh.kind, sh.pes, sh.k, sh.kind.Cumulative())
}

// forcedTopPenalty bounds how much expected error retaining the full
// top tree can add over any restricted solution. All restricted
// solutions reconstruct each item as a subset sum of its ancestors'
// expected contributions, so per item the reconstruction lives in the
// interval [Σ negative contribs, Σ positive contribs]; within a shard
// the top-tree ancestors are shared, so the drift from toggling any
// top-tree subset is at most δ̂_s = max(Σ positive, -Σ negative) over
// the shard's top-tree path contributions. The per-item error function
// is Lipschitz on the reachable interval (errSlack), and the penalties
// combine like the metric.
func forcedTopPenalty(vp *pdata.ValuePDF, kind metric.Kind, pes []*PointErrors, k int, cum bool) float64 {
	N := vp.N
	w := N / k
	cg := haar.Forward(vp.ExpectedFreqs())
	squared := kind == metric.SSEFixed || kind == metric.SSRE
	var acc numeric.Accumulator
	worst := 0.0
	for s := 0; s < k; s++ {
		var pos, neg float64
		for _, g := range haar.Path(s*w, N) {
			if g >= k {
				continue
			}
			c := float64(haar.Sign(g, s*w, N) * cg[g])
			if c > 0 {
				pos += c
			} else {
				neg += c
			}
		}
		dhat := math.Max(pos, -neg)
		if dhat == 0 {
			continue
		}
		for i := s * w; i < (s+1)*w; i++ {
			var lo, hi float64
			if squared {
				// The absolute family's slack is interval-independent;
				// only the squared family needs the reachable interval.
				for _, g := range haar.Path(i, N) {
					c := float64(haar.Sign(g, i, N) * cg[g])
					if c > 0 {
						hi += c
					} else {
						lo += c
					}
				}
			}
			e := pes[s].errSlack(i-s*w, lo, hi, dhat)
			if cum {
				acc.Add(e)
			} else if e > worst {
				worst = e
			}
		}
	}
	if cum {
		return acc.Value()
	}
	return worst
}
