package catalog

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"probsyn"
	"probsyn/internal/engine"
	"probsyn/internal/pdata"
	"probsyn/internal/synopsis"
)

// The write path. Every catalog write — a server build, sweep or
// mutation, psyn -sweep/-append into a directory — is the same act: take
// a frontier, extract a budget, publish it under its key. The rules live
// here and nowhere else, which is what makes a file psyn wrote and one
// psynd persisted interchangeable by construction. One of them keeps the
// directory's flat catalog honest: it is a derived index of the .psyn
// files, so every write removes it before it persists a byte (Publish,
// Republish), and only a pack (psyn -pack, a server's shutdown) makes a
// new one.

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
// short-circuiting a retry. The write is atomic (WriteBlob), and dir's
// flat catalog is removed before it, so a flat file never outlives a key
// it packed.
func Publish(dir string, c *Catalog, key Key, syn synopsis.Synopsis) error {
	blob, err := synopsis.Marshal(syn)
	if err != nil {
		return err
	}
	if dir != "" {
		if err := invalidateFlat(dir); err != nil {
			return err
		}
		if err := WriteBlob(filepath.Join(dir, key.Filename()), blob); err != nil {
			return fmt.Errorf("persist %s: %w", key, err)
		}
	}
	if c != nil {
		c.PutEncoded(key, syn, blob)
	}
	return nil
}

// invalidateFlat removes dir's flat catalog, the index a write to dir
// would leave stale. A missing file is fine.
func invalidateFlat(dir string) error {
	err := os.Remove(FlatPath(dir))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("invalidate the flat catalog: %w", err)
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
	groups := groupKeys(keys)
	return publishGroups(dir, c, groups, func(g int) (synopsis.Frontier, error) { return frontier(groupTop(groups[g])) })
}

// publishGroups is ExtractAndPublish's loop over grouped keys: group g's
// frontier is frontier(g), asked in group order.
func publishGroups(dir string, c *Catalog, groups [][]Key, frontier func(g int) (synopsis.Frontier, error)) (n int, err error) {
	for g, group := range groups {
		fr, err := frontier(g)
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

// groupTop is the key a group's frontier must cover: the group's key at
// its largest budget.
func groupTop(group []Key) Key {
	top := group[0]
	for _, k := range group {
		top.Budget = max(top.Budget, k.Budget)
	}
	return top
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

// Apply returns a copy of vp with the mutation applied, in memory only; vp
// is left alone, and an update index outside the domain is an error.
// Persisting the copy is Republish's, which writes it before any synopsis
// over it.
//
// The copy is shallow where it can be: a fresh Items slice, sized for
// the append, holding clones of the new or updated items and sharing
// every untouched item's Entries array with vp. That is sound because no
// code writes an ItemPDF.Entries element in place once the item is in a
// dataset: entries are built by append while an item is parsed or made,
// an item is replaced whole, and a stored item is only read. A change
// that writes into a stored item's entries breaks that invariant, and
// with it every older dataset that shares the array.
func (mu Mutation) Apply(vp *pdata.ValuePDF) (*pdata.ValuePDF, error) {
	if mu.Update != nil && (mu.I < 0 || mu.I >= vp.N) {
		return nil, fmt.Errorf("update index %d outside domain [0, %d)", mu.I, vp.N)
	}
	next := &pdata.ValuePDF{N: vp.N, Items: make([]pdata.ItemPDF, len(vp.Items), len(vp.Items)+len(mu.Items))}
	copy(next.Items, vp.Items)
	if mu.Update != nil {
		next.Items[mu.I] = mu.Update.Clone()
	} else {
		for _, it := range mu.Items {
			next.Items = append(next.Items, it.Clone())
		}
		next.N = len(next.Items)
	}
	return next, nil
}

// Republish is a mutation's whole write: the sequence psynd's
// /v1/append and /v1/update and psyn -append share.
//
//  1. Apply the mutation to vp in memory, and remove dir's flat catalog:
//     from here on keys change or are withdrawn.
//  2. At once: persist the mutated dataset to dataPath (atomically, in the
//     dataset text format; skipped when dataPath is empty), and ask every
//     key group's frontier(top, next) over engine.Fan, top being the
//     group's key at its largest budget (ExtractAndPublish's groups). The
//     groups are independent DPs; how many run at once is the caller's
//     pool's MaxBuilds, whose tokens each frontier's build or maintenance
//     takes.
//  3. Once the dataset is on disk, extract and publish the keys group by
//     group in key order, as ExtractAndPublish does, each group as soon
//     as its frontier is ready.
//
// No synopsis is written before the dataset, so after a crash a rebuild
// over the file reproduces the catalog or supersedes it, never an older
// dataset under newer synopses. Republish returns the mutated dataset
// next, how many keys n it published, and an error:
//
//   - Apply or the flat catalog's removal fails: next is nil and nothing
//     ran.
//   - The dataset does not persist: next is nil and err is a
//     *PersistError. Nothing is published, but every frontier ran, so
//     state retained behind them absorbed a mutation that never became
//     durable; the caller must drop it.
//   - Otherwise next is the mutated dataset and keys[:n] are published.
//     On an error n is ExtractAndPublish's prefix: group k failing
//     publishes exactly the groups before it, though the later frontiers
//     ran.
//
// Republish returns only once every frontier call has.
func (mu Mutation) Republish(vp *pdata.ValuePDF, dataPath, dir string, c *Catalog, keys []Key,
	frontier func(top Key, next *pdata.ValuePDF) (synopsis.Frontier, error)) (*pdata.ValuePDF, int, error) {
	// next is a local, not a named result: the frontier calls read it
	// until the deferred wait, after a return has set the results.
	next, err := mu.Apply(vp)
	if err != nil {
		return nil, 0, err
	}
	if dir != "" {
		if err := invalidateFlat(dir); err != nil {
			return nil, 0, err
		}
	}
	persisted := make(chan error, 1)
	go func() { persisted <- persistDataset(dataPath, next) }()

	groups := groupKeys(keys)
	frs := make([]synopsis.Frontier, len(groups))
	errs := make([]error, len(groups))
	ready := make([]chan struct{}, len(groups))
	for g := range ready {
		ready[g] = make(chan struct{})
	}
	fanned := make(chan struct{})
	go func() {
		defer close(fanned)
		engine.Fan(len(groups), len(groups), func(g int) error {
			defer close(ready[g])
			frs[g], errs[g] = frontier(groupTop(groups[g]), next)
			return nil
		})
	}()
	defer func() { <-fanned }()

	if err := <-persisted; err != nil {
		return nil, 0, err
	}
	n, err := publishGroups(dir, c, groups, func(g int) (synopsis.Frontier, error) {
		<-ready[g]
		fr := frs[g]
		frs[g] = nil // a sweep built only for this call (psyn's) is collectable once its group is published
		return fr, errs[g]
	})
	return next, n, err
}

// PersistError is Republish's failure to write the mutated dataset.
type PersistError struct {
	Path string
	Err  error
}

func (e *PersistError) Error() string { return fmt.Sprintf("persist dataset %s: %v", e.Path, e.Err) }
func (e *PersistError) Unwrap() error { return e.Err }

// persistDataset writes vp to path atomically in the dataset text format,
// streamed into the temp file (the writer buffers a few kB, not the
// file); an empty path writes nothing.
func persistDataset(path string, vp *pdata.ValuePDF) error {
	if path == "" {
		return nil
	}
	err := writeAtomic(path, func(w io.Writer) error { return probsyn.WriteDataset(w, vp) })
	if err != nil {
		return &PersistError{Path: path, Err: err}
	}
	return nil
}

// Absorb applies the mutation to a live frontier built over the
// pre-mutation data.
func (mu Mutation) Absorb(m synopsis.Maintainer) error {
	if mu.Update != nil {
		return m.Update(mu.I, *mu.Update)
	}
	return m.Append(mu.Items)
}
