package intervals

import (
	"math/rand"
	"sort"
	"testing"
)

func bruteStab(ivs []Interval, x int) []int {
	var ids []int
	for _, iv := range ivs {
		if iv.Lo <= x && x <= iv.Hi {
			ids = append(ids, iv.ID)
		}
	}
	sort.Ints(ids)
	return ids
}

func treeStab(t *Tree, x int) []int {
	var ids []int
	t.Stab(x, func(iv Interval) bool { ids = append(ids, iv.ID); return true })
	sort.Ints(ids)
	return ids
}

func TestEmptyTree(t *testing.T) {
	tr := New(nil)
	if tr.Size() != 0 {
		t.Fatalf("Size = %d", tr.Size())
	}
	if got := treeStab(tr, 5); len(got) != 0 {
		t.Fatalf("stab on empty tree returned %v", got)
	}
}

func TestSingleInterval(t *testing.T) {
	tr := New([]Interval{{Lo: 2, Hi: 5, ID: 1}})
	for x, want := range map[int]int{1: 0, 2: 1, 3: 1, 5: 1, 6: 0} {
		if got := len(treeStab(tr, x)); got != want {
			t.Errorf("stab(%d) found %d intervals, want %d", x, got, want)
		}
	}
}

func TestInvalidIntervalsDropped(t *testing.T) {
	tr := New([]Interval{{Lo: 5, Hi: 2, ID: 1}, {Lo: 1, Hi: 1, ID: 2}})
	if tr.Size() != 1 {
		t.Fatalf("Size = %d, want 1 (reversed interval dropped)", tr.Size())
	}
}

func TestPointIntervals(t *testing.T) {
	ivs := []Interval{{0, 0, 1}, {0, 0, 2}, {3, 3, 3}}
	tr := New(ivs)
	if got := treeStab(tr, 0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("stab(0) = %v", got)
	}
	if got := treeStab(tr, 1); len(got) != 0 {
		t.Fatalf("stab(1) = %v, want none", got)
	}
}

func TestNestedAndOverlapping(t *testing.T) {
	ivs := []Interval{
		{0, 100, 1}, {10, 20, 2}, {15, 60, 3}, {59, 61, 4}, {90, 95, 5},
	}
	tr := New(ivs)
	for x := -2; x <= 102; x++ {
		got := treeStab(tr, x)
		want := bruteStab(ivs, x)
		if len(got) != len(want) {
			t.Fatalf("stab(%d) = %v, want %v", x, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("stab(%d) = %v, want %v", x, got, want)
			}
		}
	}
}

func TestStabEarlyStop(t *testing.T) {
	ivs := []Interval{{0, 10, 1}, {0, 10, 2}, {0, 10, 3}}
	tr := New(ivs)
	calls := 0
	tr.Stab(5, func(Interval) bool { calls++; return calls < 2 })
	if calls != 2 {
		t.Fatalf("visited %d intervals after early stop, want 2", calls)
	}
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(200)
		ivs := make([]Interval, m)
		for i := range ivs {
			lo := rng.Intn(300)
			ivs[i] = Interval{Lo: lo, Hi: lo + rng.Intn(40), ID: i}
		}
		tr := New(ivs)
		if tr.Size() != m {
			t.Fatalf("Size = %d, want %d", tr.Size(), m)
		}
		for q := 0; q < 100; q++ {
			x := rng.Intn(360) - 10
			got, want := treeStab(tr, x), bruteStab(ivs, x)
			if len(got) != len(want) {
				t.Fatalf("trial %d: stab(%d) %d hits, want %d", trial, x, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: stab(%d) = %v, want %v", trial, x, got, want)
				}
			}
		}
	}
}
