// Package catalog is the serving layer's synopsis registry: an in-memory,
// read-mostly map from (dataset, family, metric, budget) to a built
// synopsis, with a disk format that is nothing but the existing versioned
// synopsis envelope under a key-encoding filename. A long-lived server
// loads a catalog directory at startup, answers estimates from memory
// under an RWMutex, and persists each newly built synopsis back to the
// directory; cmd/psyn writes the same files offline, so a synopsis built
// anywhere is servable everywhere — and since the engine's builds are
// deterministic, replicas that build the same key produce byte-identical
// catalog files. The server and cmd/psyn write through one path,
// write.go: Publish (persist, then register), ExtractAndPublish (a
// frontier's budgets under their keys) and Mutation.Republish (the
// dataset, before any synopsis over it).
package catalog

import (
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"probsyn"
	"probsyn/internal/metric"
	"probsyn/internal/query"
	"probsyn/internal/synopsis"
)

// The two synopsis families, as catalog key vocabulary. These match the
// codec type names of internal/synopsis.
const (
	FamilyHistogram = "histogram"
	FamilyWavelet   = "wavelet"
)

// Key identifies one synopsis in the catalog: which dataset it
// summarizes, which family it is, which error metric (with its sanity
// constant, for relative-error metrics) it was optimized for, and its
// term budget.
type Key struct {
	Dataset string `json:"dataset"`
	Family  string `json:"family"`
	Metric  string `json:"metric"`
	Budget  int    `json:"budget"`
	// C is the relative-error sanity constant the synopsis was built
	// with; always 0 for metrics that do not use it, so equal builds
	// compare equal. Synopses for the same metric under different C
	// optimize different objectives and must not be served
	// interchangeably.
	C float64 `json:"c,omitempty"`
	// Q is the approximate restricted wavelet DP's incoming-value grid
	// size (0 = exact build). Exact and quantized builds of the same
	// (dataset, metric, budget) are different synopses — the quantized
	// one carries bounded suboptimality — so they catalog under distinct
	// keys and coexist.
	Q int `json:"q,omitempty"`
}

// NewKey canonicalizes and validates the fields of a key: the metric is
// round-tripped through metric.Parse so "SSE-fixed" and friends are
// spelled exactly one way, c is zeroed for metrics that ignore it, the
// family must be a known one, and dataset must be non-empty. A wavelet
// SSE-fixed key is refused as every build refuses it: that synopsis is
// the wavelet SSE one, so keys stay one-to-one with synopses.
func NewKey(dataset, family, metricName string, budget int, c float64) (Key, error) {
	if dataset == "" {
		return Key{}, fmt.Errorf("catalog: empty dataset name")
	}
	if family != FamilyHistogram && family != FamilyWavelet {
		return Key{}, fmt.Errorf("catalog: unknown family %q (want %q or %q)", family, FamilyHistogram, FamilyWavelet)
	}
	k, err := metric.Parse(metricName)
	if err != nil {
		return Key{}, fmt.Errorf("catalog: %w", err)
	}
	if family == FamilyWavelet && k == metric.SSEFixed {
		return Key{}, fmt.Errorf("catalog: SSE-fixed is a histogram metric: a wavelet's SSE-fixed optimum is its SSE synopsis (Theorem 7); ask for SSE")
	}
	if budget < 1 {
		return Key{}, fmt.Errorf("catalog: budget %d, want >= 1", budget)
	}
	// The build's own rule on c, which also keeps NaN (a key equal to
	// nothing, itself least of all) and +Inf (a c JSON cannot write, and
	// every response echoes its key) out of the catalog.
	if err := (metric.Params{C: c}).Check(k); err != nil {
		return Key{}, fmt.Errorf("catalog: %w", err)
	}
	if !k.Relative() {
		c = 0
	}
	return Key{Dataset: dataset, Family: family, Metric: k.String(), Budget: budget, C: c}, nil
}

// NewKeyQ is NewKey for quantized builds: q is the approximate restricted
// wavelet DP's grid size. q == 0 is an exact build (identical to NewKey);
// otherwise q must be >= 2, the family must be wavelet, and the metric
// must be one the restricted DP prices (not plain SSE, whose greedy build
// is already exact) — the verdict probsyn.WithQuantize gets at every build
// entry point, so a build that would be refused is refused at the key,
// before any work runs.
func NewKeyQ(dataset, family, metricName string, budget int, c float64, q int) (Key, error) {
	key, err := NewKey(dataset, family, metricName, budget, c)
	if err != nil || q == 0 {
		return key, err
	}
	if q < 2 {
		return Key{}, fmt.Errorf("catalog: quantization q = %d, want 0 (exact) or >= 2", q)
	}
	if family != FamilyWavelet {
		return Key{}, fmt.Errorf("catalog: incoming-value quantization is a wavelet option, not a %s one", family)
	}
	if key.Metric == metric.SSE.String() {
		return Key{}, fmt.Errorf("catalog: the SSE wavelet build is greedy-exact; quantization applies to the restricted DP metrics")
	}
	key.Q = q
	return key, nil
}

// BuildOptions returns the metric and the probsyn options that build this
// key's synopsis: the metric parameters (C is the constant the build was
// requested at, > 0 exactly for relative-error metrics; Params.C is unused
// otherwise), the family and the quantization. The caller adds where the
// build runs (WithPool or WithParallelism). Everything that publishes
// under a key — a server build, sweep or live frontier, psyn -sweep or
// -append — derives its build from here, so that one key cannot come to
// mean two builds. A sharded merge is not the build its key would name,
// so it never publishes under one.
func (k Key) BuildOptions() (probsyn.Metric, []probsyn.BuildOption, error) {
	m, err := probsyn.ParseMetric(k.Metric)
	if err != nil {
		return 0, nil, err
	}
	opts := []probsyn.BuildOption{probsyn.WithParams(probsyn.Params{C: k.C})}
	if k.Family == FamilyWavelet {
		opts = append(opts, probsyn.WithWavelet())
		if k.Q > 0 {
			opts = append(opts, probsyn.WithQuantize(k.Q))
		}
	}
	return m, opts, nil
}

// String renders the key in its canonical human-readable form.
func (k Key) String() string {
	m := k.Metric
	if k.C != 0 {
		m += fmt.Sprintf("(c=%g)", k.C)
	}
	if k.Q != 0 {
		m += fmt.Sprintf("(q=%d)", k.Q)
	}
	return fmt.Sprintf("%s/%s/%s/%d", k.Dataset, k.Family, m, k.Budget)
}

// Filename encodes the key as a catalog filename:
// <dataset>--<family>--<metric>[--c<C>][--q<Q>]--b<budget>.psyn,
// with the dataset percent-escaped so arbitrary names cannot collide
// with the separators or escape the directory. The c segment appears
// exactly for relative-error metrics, so builds under different sanity
// constants land in different files; the q segment appears exactly for
// quantized builds, so an approximate synopsis can never shadow the
// exact one.
func (k Key) Filename() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s--%s--%s", url.PathEscape(k.Dataset), k.Family, k.Metric)
	if k.C != 0 {
		fmt.Fprintf(&sb, "--c%g", k.C)
	}
	if k.Q != 0 {
		fmt.Fprintf(&sb, "--q%d", k.Q)
	}
	fmt.Fprintf(&sb, "--b%d.psyn", k.Budget)
	return sb.String()
}

// ParseFilename inverts Filename. Files that do not follow the encoding
// (or fail key validation) are rejected, so a catalog directory can hold
// unrelated files without confusing a load.
func ParseFilename(name string) (Key, error) {
	base, ok := strings.CutSuffix(name, ".psyn")
	if !ok {
		return Key{}, fmt.Errorf("catalog: %q is not a catalog file (want .psyn)", name)
	}
	// Family, metric, the optional c and q, and budget never contain the
	// separator nor begin with '-', so each is cut off the right end at the
	// LAST "--"; the dataset, whose escaped name may itself contain "--"
	// or end in '-', is what is left.
	rest, ok := base, true
	pop := func() (seg string) {
		i := strings.LastIndex(rest, "--")
		if i < 0 {
			ok = false
			return ""
		}
		seg, rest = rest[i+2:], rest[:i]
		return seg
	}
	seg := pop()
	if !strings.HasPrefix(seg, "b") {
		return Key{}, fmt.Errorf("catalog: filename %q does not encode a key", name)
	}
	budget, err := strconv.Atoi(seg[1:])
	if err != nil {
		return Key{}, fmt.Errorf("catalog: filename %q: bad budget: %w", name, err)
	}
	seg = pop() // metric, after the optional q and c
	q := 0
	if strings.HasPrefix(seg, "q") {
		if q, err = strconv.Atoi(seg[1:]); err != nil {
			return Key{}, fmt.Errorf("catalog: filename %q: bad quantization: %w", name, err)
		}
		seg = pop()
	}
	c := 0.0
	if strings.HasPrefix(seg, "c") {
		if c, err = strconv.ParseFloat(seg[1:], 64); err != nil {
			return Key{}, fmt.Errorf("catalog: filename %q: bad sanity constant: %w", name, err)
		}
		seg = pop()
	}
	family := pop()
	if !ok {
		return Key{}, fmt.Errorf("catalog: filename %q does not encode a key", name)
	}
	dataset, err := url.PathUnescape(rest)
	if err != nil {
		return Key{}, fmt.Errorf("catalog: filename %q: %w", name, err)
	}
	key, err := NewKeyQ(dataset, family, seg, budget, c, q)
	if err != nil {
		return Key{}, err
	}
	// A c segment on a non-relative metric (or a missing one on a
	// relative metric), or c and q segments out of order, is not a
	// name Filename produces; reject it so the round trip stays
	// injective.
	if key.Filename() != name {
		return Key{}, fmt.Errorf("catalog: filename %q does not round-trip its key %v", name, key)
	}
	return key, nil
}

// Entry is one cataloged synopsis with its serialized size (the bytes the
// envelope occupies on disk and on replication wires) and its compiled
// querier — the O(log)-time zero-allocation read path every query answers
// through.
type Entry struct {
	Key      Key
	Synopsis synopsis.Synopsis
	Bytes    int
	// Querier is compiled from Synopsis once, at publish time, and is
	// bit-identical to the synopsis's own Estimate/RangeSum. It is never
	// invalidated in place: a republish (a live mutation, a rebuilt
	// budget) installs a whole new Entry, querier included, so a reader
	// holding this entry always has the querier matching this synopsis.
	Querier query.Querier
	// lazy, when non-nil, is the entry's flat-catalog backing: Synopsis
	// and Querier are decoded from the entry's envelope in the flat file
	// on the first Get or List that reaches the entry, so attaching a
	// large flat catalog costs nothing per entry until the entry is
	// actually served. Codec-loaded and published entries have nil lazy.
	lazy *flatLazy
}

// Catalog is the in-memory registry. Reads (Get, List, Len) take the
// read lock so estimate traffic scales across cores; Put takes the write
// lock only for the map insert — synopsis construction and serialization
// happen outside it.
type Catalog struct {
	mu      sync.RWMutex
	entries map[Key]*Entry
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{entries: make(map[Key]*Entry)}
}

// Put registers a synopsis under the key, replacing any previous entry
// (rebuilds of the same key are idempotent by determinism, so replacing
// is safe). It serializes once to record the entry's size and returns
// the entry; the encoded bytes are returned alongside so callers
// persisting to disk do not marshal twice.
func (c *Catalog) Put(key Key, syn synopsis.Synopsis) (*Entry, []byte, error) {
	blob, err := synopsis.Marshal(syn)
	if err != nil {
		return nil, nil, err
	}
	return c.PutEncoded(key, syn, blob), blob, nil
}

// PutEncoded is Put for callers that already hold the synopsis's
// envelope bytes (a loaded catalog file, a just-persisted build): the
// entry records the blob's size without re-marshaling, and the blob is
// not retained — the catalog keeps only the decoded synopsis.
func (c *Catalog) PutEncoded(key Key, syn synopsis.Synopsis, blob []byte) *Entry {
	e := &Entry{Key: key, Synopsis: syn, Bytes: len(blob), Querier: query.Compile(syn)}
	c.mu.Lock()
	c.entries[key] = e
	c.mu.Unlock()
	return e
}

// Delete removes the key's entry, if present. The serving layer uses it
// to withdraw entries it can no longer vouch for (a mutation that failed
// after its dataset was persisted): a not_found answer that triggers a
// rebuild over the current data beats silently serving a stale synopsis.
func (c *Catalog) Delete(key Key) {
	c.mu.Lock()
	delete(c.entries, key)
	c.mu.Unlock()
}

// Get returns the entry for the key, if present. A flat-backed entry is
// decoded here, on first fetch; one that fails (a corrupt envelope) is
// withdrawn and reported not-found — not_found triggers a rebuild over
// the current data, which beats serving wrong estimates from a damaged
// file.
func (c *Catalog) Get(key Key) (*Entry, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok || e.lazy != nil && !c.decoded(e) {
		return nil, false
	}
	return e, true
}

// decoded runs a flat-backed entry's deferred decode (memoized) and
// withdraws the entry, with a warning, if it fails.
func (c *Catalog) decoded(e *Entry) bool {
	err := e.lazy.decode(e)
	if err == nil {
		return true
	}
	if w := e.lazy.f.warnf; w != nil {
		w("withdrawing flat catalog entry %v: %v", e.Key, err)
	}
	// Withdraw only if the map still holds this exact entry — a
	// concurrent republish may have already replaced it with a healthy
	// one.
	c.mu.Lock()
	if c.entries[e.Key] == e {
		delete(c.entries, e.Key)
	}
	c.mu.Unlock()
	return false
}

// Len returns the number of cataloged synopses.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// List returns the entries sorted by key, for stable listings. Like Get
// it returns only entries whose Synopsis and Querier are set: flat-backed
// entries not fetched yet are decoded here, outside the catalog lock,
// and those that fail are withdrawn and left out.
func (c *Catalog) List() []*Entry {
	c.mu.RLock()
	all := make([]*Entry, 0, len(c.entries))
	for _, e := range c.entries {
		all = append(all, e)
	}
	c.mu.RUnlock()
	out := all[:0]
	for _, e := range all {
		if e.lazy == nil || c.decoded(e) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(a, b int) bool { return keyLess(out[a].Key, out[b].Key) })
	return out
}

// keyLess is the catalog's one key ordering: List sorts by it and Pack
// lays flat files out in it, which is what makes packing deterministic —
// the same logical catalog serializes byte-identically wherever it is
// packed.
func keyLess(ka, kb Key) bool {
	if ka.Dataset != kb.Dataset {
		return ka.Dataset < kb.Dataset
	}
	if ka.Family != kb.Family {
		return ka.Family < kb.Family
	}
	if ka.Metric != kb.Metric {
		return ka.Metric < kb.Metric
	}
	if ka.C != kb.C {
		return ka.C < kb.C
	}
	if ka.Q != kb.Q {
		return ka.Q < kb.Q
	}
	return ka.Budget < kb.Budget
}

// Save persists the entry's synopsis into dir under its key-encoded
// filename and returns the path written. It re-marshals the synopsis —
// deliberately: entries do not retain their envelope bytes, because a
// long-lived serving catalog holding both the decoded synopsis and its
// serialized copy would double steady-state memory, and Save runs only
// offline, where one extra marshal is cheap. The file lands through
// Publish, like every other catalog write.
func (c *Catalog) Save(dir string, e *Entry) (string, error) {
	if err := Publish(dir, nil, e.Key, e.Synopsis); err != nil {
		return "", err
	}
	return filepath.Join(dir, e.Key.Filename()), nil
}

// WriteBlob writes an already-encoded envelope to path atomically: into
// a temp file in the same directory, then rename. LoadDir fails loudly
// on a corrupt catalog file, so persistence must never expose a
// partially written one — a crash leaves at worst a stray .tmp, which
// LoadDir skips.
func WriteBlob(path string, blob []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
}

// writeAtomic is WriteBlob for content that write streams into the temp
// file.
func writeAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err = write(tmp); err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// LoadDir loads every key-encoded synopsis file in dir into the catalog
// through the envelope decoder, returning how many entries were loaded.
// Files that are not catalog files are skipped; a catalog file whose
// payload fails to decode (or whose envelope type disagrees with the
// family its name claims) is an error — a corrupt catalog must fail
// loudly at startup, not serve wrong estimates.
func (c *Catalog) LoadDir(dir string) (int, error) {
	return c.loadDir(dir, nil)
}

// loadDir is LoadDir minus the files named in covered, which are not
// loaded (or even key-parsed): the flat boot path skips every file the
// attached flat catalog already holds, by the name its index recorded.
func (c *Catalog) loadDir(dir string, covered map[string]bool) (int, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, de := range des {
		if de.IsDir() || covered[de.Name()] {
			continue
		}
		key, err := ParseFilename(de.Name())
		if err != nil {
			continue // not a catalog file
		}
		blob, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return n, fmt.Errorf("catalog: %s: %w", de.Name(), err)
		}
		syn, err := decodeEnvelope(key, blob)
		if err != nil {
			return n, fmt.Errorf("catalog: %s: %w", de.Name(), err)
		}
		c.PutEncoded(key, syn, blob)
		n++
	}
	return n, nil
}

// decodeEnvelope decodes the envelope stored under key, in a .psyn file
// or a flat catalog, and checks it holds the family the key names.
func decodeEnvelope(key Key, blob []byte) (synopsis.Synopsis, error) {
	syn, err := synopsis.Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	// TypeName cannot fail on what Unmarshal returned; if it did, "" is no
	// key's family.
	if fam, _ := synopsis.TypeName(syn); fam != key.Family {
		return nil, fmt.Errorf("envelope holds a %s, its name claims %s", fam, key.Family)
	}
	return syn, nil
}

// WriteFile serializes a synopsis to path in the binary envelope, whatever
// the path's extension, and returns the byte count written. This is the
// one save path shared by cmd/psyn and the server's catalog persistence.
func WriteFile(path string, syn synopsis.Synopsis) (int, error) {
	data, err := synopsis.Marshal(syn)
	if err != nil {
		return 0, err
	}
	if err := WriteBlob(path, data); err != nil {
		return 0, err
	}
	return len(data), nil
}

// ReadFile loads a synopsis from path through the envelope decoder — the
// matching load path.
func ReadFile(path string) (synopsis.Synopsis, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return synopsis.Unmarshal(data)
}
