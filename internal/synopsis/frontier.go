package synopsis

// Frontier is a whole cost-vs-budget curve from one build: the optimal
// expected error and a synopsis extractor for every budget 1 <= b <= Bmax.
// Both synopsis families produce one from a single dynamic-program run —
// the histogram DP table already holds every budget level, and the
// wavelet coefficient-tree DP's per-node state covers all budgets up to
// its build budget — so the budget sweeps of the paper's Figure 2 and
// Figure 4 cost one build instead of Bmax.
//
// The extraction contract is determinism end to end: Synopsis(b) is
// bit-identical (and therefore codec-byte-identical) to an independent
// build at budget b with the same configuration, so a swept synopsis and
// a single-budget build of the same key are interchangeable replicas.
type Frontier interface {
	// Bmax returns the largest budget the frontier covers. It can be
	// smaller than the budget the frontier was requested at: budgets are
	// clamped to the (padded) domain size, beyond which every synopsis
	// repeats the Bmax one.
	Bmax() int
	// Cost returns the optimal expected error at budget b, clamped to
	// [1, Bmax]. Costs are non-increasing in b ("at most b terms").
	Cost(b int) float64
	// Synopsis extracts the optimal budget-b synopsis, 1 <= b <= Bmax;
	// budgets outside that range are an error. (A wavelet frontier built
	// at budget 0 has Bmax 0 and the one budget 0, the empty synopsis.)
	Synopsis(b int) (Synopsis, error)
}

// Extract returns the frontier's synopsis for a requested budget b, with
// budgets beyond Bmax repeating the Bmax synopsis — what a single build
// at budget b returns. This is the one place a requested budget is
// clamped for extraction: probsyn.Build, the server's sweep and mutation
// publishers and offline revalidation all extract through it.
func Extract(fr Frontier, b int) (Synopsis, error) {
	return fr.Synopsis(min(b, fr.Bmax()))
}
