package catalog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"probsyn"
	"probsyn/internal/synopsis"
)

// TestExtractAndPublishContract pins what callers of the shared loop rely
// on: one frontier request per group, made at the group's largest budget;
// budgets past the curve's Bmax repeat the Bmax synopsis; files land
// before catalog entries; and on a failure the count returned is a prefix
// of key-ordered input — the server withdraws keys[n:] on that promise.
func TestExtractAndPublishContract(t *testing.T) {
	src := probsyn.Deterministic([]float64{3, 1, 4, 1, 5, 9})
	hist := Key{Dataset: "d", Family: FamilyHistogram, Metric: "SSE"}
	keys := append(append([]Key(nil), withBudget(hist, 9).Sweep()[6:]...), // h7 h8 h9: all past n = 6
		Key{Dataset: "d", Family: FamilyWavelet, Metric: "SSE", Budget: 2})
	dir, c := t.TempDir(), New()
	var asked []Key
	sweep := func(top Key) (synopsis.Frontier, error) {
		asked = append(asked, top)
		m, opts, err := top.BuildOptions()
		if err != nil {
			return nil, err
		}
		return probsyn.BuildSweep(src, m, top.Budget, opts...)
	}
	n, err := ExtractAndPublish(dir, c, keys, sweep)
	if err != nil || n != 4 {
		t.Fatalf("published %d, %v; want 4", n, err)
	}
	if len(asked) != 2 || asked[0] != withBudget(hist, 9) || asked[1] != keys[3] {
		t.Fatalf("frontiers asked for: %v", asked)
	}
	full, err := probsyn.Build(src, probsyn.SSE, 6)
	if err != nil {
		t.Fatal(err)
	}
	want, err := synopsis.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:3] {
		got, err := os.ReadFile(filepath.Join(dir, k.Filename()))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s is not the Bmax synopsis (%v)", k, err)
		}
		if e, ok := c.Get(k); !ok || e.Bytes != len(want) {
			t.Fatalf("%s not cataloged", k)
		}
	}

	// The second group's frontier fails: the first group is published, in
	// input order, and nothing of the second is.
	dir, c = t.TempDir(), New()
	boom := errors.New("boom")
	n, err = ExtractAndPublish(dir, c, keys, func(top Key) (synopsis.Frontier, error) {
		if top.Family == FamilyWavelet {
			return nil, boom
		}
		return sweep(top)
	})
	if !errors.Is(err, boom) || n != 3 || c.Len() != 3 {
		t.Fatalf("published %d (%d cataloged), %v; want 3 and boom", n, c.Len(), err)
	}
	if _, err := os.Stat(filepath.Join(dir, keys[3].Filename())); !os.IsNotExist(err) {
		t.Fatalf("a key of the failed group reached disk (%v)", err)
	}

	// A persist failure publishes nothing: no entry without its file.
	c = New()
	if n, err = ExtractAndPublish(filepath.Join(dir, "missing"), c, keys, sweep); err == nil || n != 0 || c.Len() != 0 {
		t.Fatalf("published %d (%d cataloged), %v into a missing directory", n, c.Len(), err)
	}
}

func withBudget(k Key, b int) Key {
	k.Budget = b
	return k
}

// TestMutationApply: the in-memory side of a mutation returns a mutated
// copy, leaves its input alone, and refuses an index outside the domain.
func TestMutationApply(t *testing.T) {
	base := probsyn.Deterministic([]float64{1, 2, 3})
	item := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 7, Prob: 0.5}}}
	next, err := Mutation{Items: []probsyn.ItemPDF{item, item}}.Apply(base)
	if err != nil || next.N != 5 || base.N != 3 || len(base.Items) != 3 {
		t.Fatalf("append: next %+v, base %+v, %v", next, base, err)
	}
	next, err = Mutation{I: 1, Update: &item}.Apply(base)
	if err != nil || next.N != 3 || next.Items[1].Entries[0].Freq != 7 || base.Items[1].Entries[0].Freq != 2 {
		t.Fatalf("update: next %+v, base %+v, %v", next, base, err)
	}
	for _, i := range []int{-1, 3} {
		if _, err := (Mutation{I: i, Update: &item}).Apply(base); err == nil {
			t.Fatalf("update of item %d accepted", i)
		}
	}
}

// orderedFrontier fails the test if a synopsis is extracted from it — the
// step right before Publish — while the dataset file does not yet hold
// the data the frontier was built over.
type orderedFrontier struct {
	synopsis.Frontier
	t        *testing.T
	dataPath string
	n        int
}

func (f orderedFrontier) Synopsis(b int) (synopsis.Synopsis, error) {
	src, err := readDataset(f.dataPath)
	if err != nil || src.Domain() != f.n {
		f.t.Errorf("a synopsis was extracted before the dataset of %d items was on disk (%v)", f.n, err)
	}
	return f.Frontier.Synopsis(b)
}

func readDataset(path string) (probsyn.Source, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return probsyn.ReadDataset(f)
}

// dirState maps every file in dir to its bytes.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := map[string]string{}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		st[de.Name()] = string(b)
	}
	return st
}

// TestMutationRepublishContract pins what Server.mutate and psyn -append
// rely on: the dataset is on disk before any synopsis is extracted, the
// files are ExtractAndPublish's over the mutated data, a failing group k
// publishes exactly the groups before it though every frontier ran, a
// failed persist publishes nothing, and a mutation that does not apply
// runs nothing.
func TestMutationRepublishContract(t *testing.T) {
	base := probsyn.Deterministic([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	item := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 7, Prob: 0.5}}}
	mu := Mutation{Items: []probsyn.ItemPDF{item, item}}
	hist := Key{Dataset: "d", Family: FamilyHistogram, Metric: "SSE", Budget: 3}
	keys := append(hist.Sweep(), // three groups: h1..h3, w2, SAE h2
		Key{Dataset: "d", Family: FamilyWavelet, Metric: "SSE", Budget: 2},
		Key{Dataset: "d", Family: FamilyHistogram, Metric: "SAE", Budget: 2})
	var (
		askedMu sync.Mutex
		asked   []Key
	)
	sweep := func(t *testing.T, dataPath string, fail string) func(Key, *probsyn.ValuePDF) (synopsis.Frontier, error) {
		return func(top Key, next *probsyn.ValuePDF) (synopsis.Frontier, error) {
			askedMu.Lock()
			asked = append(asked, top)
			askedMu.Unlock()
			if top.Family == fail {
				return nil, errors.New("boom")
			}
			m, opts, err := top.BuildOptions()
			if err != nil {
				return nil, err
			}
			fr, err := probsyn.BuildSweep(next, m, top.Budget, opts...)
			if err != nil || dataPath == "" {
				return fr, err
			}
			return orderedFrontier{fr, t, dataPath, next.N}, nil
		}
	}
	reset := func() {
		askedMu.Lock()
		asked = nil
		askedMu.Unlock()
	}

	// Success: the directory is ExtractAndPublish's over the mutated data.
	dir := t.TempDir()
	dataPath, catDir, refDir := filepath.Join(dir, "d.pd"), filepath.Join(dir, "cat"), filepath.Join(dir, "ref")
	for _, d := range []string{catDir, refDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	c := New()
	next, n, err := mu.Republish(base, dataPath, catDir, c, keys, sweep(t, dataPath, ""))
	if err != nil || next == nil || next.N != 10 || n != len(keys) || c.Len() != len(keys) || len(asked) != 3 {
		t.Fatalf("republished %d (%d cataloged, %d frontiers), next %v, %v", n, c.Len(), len(asked), next, err)
	}
	if src, err := readDataset(dataPath); err != nil || src.Domain() != 10 {
		t.Fatalf("persisted dataset: %v, %v", src, err)
	}
	if _, err := ExtractAndPublish(refDir, nil, keys, func(top Key) (synopsis.Frontier, error) {
		return sweep(t, "", "")(top, next)
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := dirState(t, catDir), dirState(t, refDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("Republish wrote %d files, ExtractAndPublish over the mutated data %d, or their bytes differ", len(got), len(want))
	}

	// The middle group fails: the first group's three keys are published,
	// nothing after them, and the third group's frontier still ran.
	reset()
	dir = t.TempDir()
	c = New()
	next, n, err = mu.Republish(base, filepath.Join(dir, "d.pd"), dir, c, keys, sweep(t, "", FamilyWavelet))
	if err == nil || next == nil || n != 3 || c.Len() != 3 || len(asked) != 3 {
		t.Fatalf("published %d (%d cataloged, %d frontiers), next %v, %v; want 3, the mutated data and boom", n, c.Len(), len(asked), next, err)
	}
	for _, k := range keys {
		_, err := os.Stat(filepath.Join(dir, k.Filename()))
		if published := k.Family == FamilyHistogram && k.Metric == "SSE"; published != (err == nil) {
			t.Fatalf("%s: on disk %v, want %v", k, err == nil, published)
		}
	}

	// The first group fails: nothing is published, yet the directory's
	// flat catalog is gone, since the caller now withdraws every key.
	reset()
	dir = t.TempDir()
	if _, err := Pack(FlatPath(dir), nil); err != nil {
		t.Fatal(err)
	}
	next, n, err = mu.Republish(base, filepath.Join(dir, "d.pd"), dir, New(), keys, sweep(t, "", FamilyHistogram))
	if err == nil || next == nil || n != 0 {
		t.Fatalf("published %d, next %v, %v; want 0, the mutated data and boom", n, next, err)
	}
	if _, err := os.Stat(FlatPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("the flat catalog outlived a republish that withdraws every key (stat err = %v)", err)
	}

	// The persist fails: no synopsis file is created or changed, nothing
	// is cataloged, and every frontier ran.
	reset()
	before := dirState(t, catDir)
	c = New()
	next, n, err = mu.Republish(base, filepath.Join(dir, "missing", "d.pd"), catDir, c, keys, sweep(t, "", ""))
	var pe *PersistError
	if !errors.As(err, &pe) || next != nil || n != 0 || c.Len() != 0 || len(asked) != 3 {
		t.Fatalf("published %d (%d cataloged, %d frontiers), next %v, %v; want a PersistError and nothing", n, c.Len(), len(asked), next, err)
	}
	if after := dirState(t, catDir); !reflect.DeepEqual(after, before) {
		t.Fatal("a failed dataset persist changed the catalog directory")
	}

	// The mutation does not apply: nothing runs.
	reset()
	next, _, err = Mutation{I: 8, Update: &item}.Republish(base, dataPath, catDir, c, keys, sweep(t, "", ""))
	if err == nil || errors.As(err, &pe) || next != nil || len(asked) != 0 || c.Len() != 0 {
		t.Fatalf("out-of-domain update: next %v, %d frontiers, %v", next, len(asked), err)
	}
}
