package synopsis

import "probsyn/internal/pdata"

// Maintainer is a live Frontier: a budget frontier that keeps its data
// and absorbs mutations of it. Mutations are defined over the value-pdf
// model — the one model in which "item i's frequency distribution" is a
// first-class, independently replaceable object — so Append extends the
// ordered domain with new item pdfs and Update replaces one item's pdf in
// place.
//
// The maintenance contract extends the Frontier determinism contract:
// after any sequence of Append/Update calls, Synopsis(b) is bit-identical
// (and therefore codec-byte-identical) to a fresh frontier built over the
// mutated data with the same configuration, at every budget and every
// worker count. What a mutation costs is family-dependent — a histogram
// resumes its retained DP table (internal/hist's DPTable.Resume), a wavelet
// frontier runs a fresh sweep over the mutated data; what it returns is
// not.
//
// A Maintainer is not safe for concurrent mutation; callers serialize
// Append/Update against each other and against extraction (the serving
// layer holds a per-dataset lock, the probsyn adapters an internal one).
type Maintainer interface {
	Frontier
	// Domain returns the current logical domain size n (items 0..n-1).
	// Wavelet synopses still pad to a power of two internally; Domain is
	// the unpadded size mutations are addressed against.
	Domain() int
	// Append extends the domain with the given item pdfs: item Domain()
	// gets items[0], and so on. The frontier then answers for the grown
	// domain; Bmax may grow if the build budget was clamped by the old
	// domain size.
	Append(items []pdata.ItemPDF) error
	// Update replaces item i's frequency pdf, 0 <= i < Domain().
	Update(i int, item pdata.ItemPDF) error
}
