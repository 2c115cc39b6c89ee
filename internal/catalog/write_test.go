package catalog

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
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

// TestMutationApply: the dataset side of a mutation returns a mutated
// copy, leaves its input alone, refuses an index outside the domain, and
// writes the copy — readable back equal — when given a path.
func TestMutationApply(t *testing.T) {
	base := probsyn.Deterministic([]float64{1, 2, 3})
	item := probsyn.ItemPDF{Entries: []probsyn.FreqProb{{Freq: 7, Prob: 0.5}}}
	path := filepath.Join(t.TempDir(), "d.pd")
	next, err := Mutation{Items: []probsyn.ItemPDF{item, item}}.Apply(base, path)
	if err != nil || next.N != 5 || base.N != 3 || len(base.Items) != 3 {
		t.Fatalf("append: next %+v, base %+v, %v", next, base, err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if back, err := probsyn.ReadDataset(f); err != nil || back.Domain() != 5 {
		t.Fatalf("persisted dataset: %v, %v", back, err)
	}
	next, err = Mutation{I: 1, Update: &item}.Apply(base, "")
	if err != nil || next.N != 3 || next.Items[1].Entries[0].Freq != 7 || base.Items[1].Entries[0].Freq != 2 {
		t.Fatalf("update: next %+v, base %+v, %v", next, base, err)
	}
	for _, i := range []int{-1, 3} {
		if _, err := (Mutation{I: i, Update: &item}).Apply(base, path); err == nil {
			t.Fatalf("update of item %d accepted", i)
		}
	}
}
