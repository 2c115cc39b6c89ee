package catalog

import (
	"bytes"
	"fmt"
	"path/filepath"

	"probsyn"
	"probsyn/internal/pdata"
	"probsyn/internal/synopsis"
)

// The write path. Every catalog write — a server build, sweep, sharded
// build or mutation, psyn -sweep/-shards/-append into a directory — is the
// same act: take a frontier, extract a budget, publish it under its key.
// The three rules live here and nowhere else, which is what makes a file
// psyn wrote and one psynd persisted interchangeable by construction.

// KeyFor is the key a built synopsis publishes under: the family is the
// synopsis's codec type name, the rest is what the build was asked for.
func KeyFor(dataset string, syn synopsis.Synopsis, metricName string, budget int, c float64, q int) (Key, error) {
	family, err := synopsis.TypeName(syn)
	if err != nil {
		return Key{}, err
	}
	return NewKeyQ(dataset, family, metricName, budget, c, q)
}

// Sweep returns the keys a budget sweep of k writes: k at every budget
// 1..k.Budget.
func (k Key) Sweep() []Key {
	keys := make([]Key, k.Budget)
	for b := range keys {
		keys[b] = k
		keys[b].Budget = b + 1
	}
	return keys
}

// Publish makes a built synopsis servable under key: encode it, persist
// the envelope as dir/key.Filename() when dir is non-empty, then register
// it in c when c is non-nil. Persist before publishing: a key is
// observable (ready, servable) only once it is on disk, so a failed
// persist leaves nothing half-done — no window where a key serves
// estimates and then vanishes, and no catalog entry that never hit disk
// short-circuiting a retry. The write is atomic (WriteBlob).
func Publish(dir string, c *Catalog, key Key, syn synopsis.Synopsis) error {
	blob, err := synopsis.Marshal(syn)
	if err != nil {
		return err
	}
	if dir != "" {
		if err := WriteBlob(filepath.Join(dir, key.Filename()), blob); err != nil {
			return fmt.Errorf("persist %s: %w", key, err)
		}
	}
	if c != nil {
		c.PutEncoded(key, syn, blob)
	}
	return nil
}

// ExtractAndPublish publishes every key from its group's frontier: keys
// are grouped per frontier (groupKeys), frontier is asked once per group
// for the curve covering top — the group's key at its largest budget —
// and each key's budget is extracted (budgets past the curve's clamped
// Bmax repeat the Bmax synopsis, as a single build at that budget
// returns) and published. Groups run in first-appearance order and keys in
// input order within a group, so when keys arrive sorted by keyLess the n
// keys published before an error are keys[:n].
//
// What frontier hands back is the caller's one decision: a sweep builds
// it (probsyn.BuildSweep), a server mutation returns the retained live
// frontier after it absorbed the mutation, psyn -append builds it over
// the merged data.
func ExtractAndPublish(dir string, c *Catalog, keys []Key, frontier func(top Key) (synopsis.Frontier, error)) (n int, err error) {
	for _, group := range groupKeys(keys) {
		top := group[0]
		for _, k := range group {
			top.Budget = max(top.Budget, k.Budget)
		}
		fr, err := frontier(top)
		if err != nil {
			return n, err
		}
		for _, key := range group {
			syn, err := synopsis.Extract(fr, key.Budget)
			if err != nil {
				return n, fmt.Errorf("%s: %w", key, err)
			}
			if err := Publish(dir, c, key, syn); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// groupKeys partitions keys into per-frontier groups — equal in
// everything but Budget — in first-appearance order, keys keeping their
// input order within each group. One DP table answers every budget of a
// group, so the group is the unit a frontier is built or maintained for.
func groupKeys(keys []Key) [][]Key {
	idx := make(map[Key]int, len(keys))
	var groups [][]Key
	for _, k := range keys {
		gk := k
		gk.Budget = 0
		g, ok := idx[gk]
		if !ok {
			g = len(groups)
			idx[gk] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], k)
	}
	return groups
}

// Mutation is one dataset mutation over the value-pdf model: an append
// batch, or an in-place replacement of item I when Update is non-nil.
type Mutation struct {
	Items  []pdata.ItemPDF // append batch
	I      int
	Update *pdata.ItemPDF
}

// Apply returns a copy of vp with the mutation applied, persisted to path
// (atomically, in the dataset text format) when path is non-empty. The
// dataset is written before any synopsis is republished over it: after a
// crash or restart, a from-scratch rebuild over the file must reproduce
// what the catalog holds, never an older dataset under newer synopses.
func (mu Mutation) Apply(vp *pdata.ValuePDF, path string) (*pdata.ValuePDF, error) {
	next := vp.Clone()
	if mu.Update != nil {
		if mu.I < 0 || mu.I >= next.N {
			return nil, fmt.Errorf("update index %d outside domain [0, %d)", mu.I, next.N)
		}
		next.Items[mu.I] = mu.Update.Clone()
	} else {
		for _, it := range mu.Items {
			next.Items = append(next.Items, it.Clone())
		}
		next.N = len(next.Items)
	}
	if path == "" {
		return next, nil
	}
	var buf bytes.Buffer
	if err := probsyn.WriteDataset(&buf, next); err != nil {
		return nil, err
	}
	if err := WriteBlob(path, buf.Bytes()); err != nil {
		return nil, fmt.Errorf("persist dataset %s: %w", path, err)
	}
	return next, nil
}

// Absorb applies the mutation to a live frontier built over the
// pre-mutation data.
func (mu Mutation) Absorb(m synopsis.Maintainer) error {
	if mu.Update != nil {
		return m.Update(mu.I, *mu.Update)
	}
	return m.Append(mu.Items)
}
