// Cluster mode: several psynd processes with the same -peers list form
// a scatter/gather cluster with no coordinator. Placement is pure
// function of the shared peer list (internal/cluster's consistent-hash
// ring), so every node routes identically without talking to anyone:
//
//   - A dataset has one owning node (ring key "ds/<dataset>"). Build
//     requests forward to the owner, which runs the sharded build and
//     answers gathered queries for the dataset's sharded keys.
//   - A sharded build's pieces spread over the ring independently (ring
//     key "piece/<piece filename>"): the owner builds all k pieces,
//     pushes each to its owning peer via POST /v1/accept
//     (persist-before-publish on the receiving side), and publishes the
//     merged whole under the piece-less key only after every piece
//     landed — the cluster-wide analogue of the single-node
//     persist-before-publish discipline.
//   - A gathered GET /v1/rangesum?...&shards=k splits the range at the
//     build's shard boundaries, answers each subrange from the piece's
//     querier, and sums the partials; estimates route to the single
//     owning piece. Remote pieces are fetched once (GET /v1/blob),
//     compiled, and cached on the coordinating owner — synopses are
//     tiny, so steady-state gathered reads are purely local and the
//     scatter happens at build time (piece distribution) and on first
//     touch, not per query. Batch /v1/query resolves sharded keys
//     through the same compiled pieces.
//
// A node outside a cluster (empty peer list, or a single-entry one) is
// just an ordinary psynd; all of the handlers below still work against
// locally built pieces, which is what the single-node tests exercise.
package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/cluster"
	"probsyn/internal/engine"
	"probsyn/internal/query"
)

// clustered reports whether this server is one node of a multi-node
// cluster. A single-entry peer list is legal config but routes nothing.
func (s *Server) clustered() bool {
	return s.ring != nil && len(s.cfg.Peers) > 1
}

// datasetOwner is the node that builds (and coordinates gathers for)
// the dataset's synopses.
func (s *Server) datasetOwner(dataset string) string {
	return s.ring.Owner("ds/" + dataset)
}

// pieceOwner is the node that serves one piece of a sharded build.
// Pieces place by filename, independently of their dataset, so a
// dataset's k pieces spread over the whole ring.
func (s *Server) pieceOwner(filename string) string {
	return s.ring.Owner("piece/" + filename)
}

// forward relays a request to a peer and writes the peer's response
// back verbatim — the peer's typed errors are this API's typed errors.
// Only a transport-level failure (peer unreachable after the client's
// retry) is translated, into 502 peer_unavailable.
func (s *Server) forward(w http.ResponseWriter, peer, method, pathAndQuery string, body []byte, contentType string) {
	status, resp, err := s.remote.Do(peer, method, pathAndQuery, body, contentType)
	if err != nil {
		writeError(w, http.StatusBadGateway, CodePeerUnavailable, "peer %s: %v", peer, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(resp)
}

// ---- the sharded build path ----

// buildSharded is the sharded twin of build: one probsyn.BuildSharded
// over the shared pool (one admission token per shard), then the k
// pieces are distributed to their owning nodes and the merged whole is
// published under the ordinary piece-less key — pieces first, merged
// last, so a key whose whole is cataloged always has every piece
// servable somewhere. Sharded builds are never short-circuited by an
// existing catalog entry: the whole may be local while a remote piece
// was lost, and rebuilding is deterministic and idempotent.
func (s *Server) buildSharded(key catalog.Key, k int) error {
	lock := s.datasetLock(key.Dataset)
	lock.RLock()
	defer lock.RUnlock()
	src, err := s.dataset(key.Dataset)
	if err != nil {
		return err
	}
	m, opts, err := s.buildOptions(key)
	if err != nil {
		return err
	}
	res, err := probsyn.BuildSharded(src, m, key.Budget, k, opts...)
	if err != nil {
		return fmt.Errorf("sharded build %s (%d shards): %w", key, k, err)
	}
	// Whatever happens below, compiled remote pieces of this key are
	// stale the moment redistribution starts; dropping them again on the
	// way out covers a fetch that raced a partially distributed build.
	s.dropCachedPieces(key, k)
	defer s.dropCachedPieces(key, k)
	for i, piece := range res.Pieces {
		pk, err := key.Piece(i, k)
		if err != nil {
			return err
		}
		if err := s.placePiece(pk, piece); err != nil {
			return err
		}
	}
	if err := s.publish(key, res.Synopsis, nil); err != nil {
		return err
	}
	s.logf("sharded build %s: %d shards, cost %.6g, suboptimality bound %.6g",
		key, k, res.Synopsis.ErrorCost(), res.Bound)
	return nil
}

// placePiece installs one piece at its owning node: locally with the
// usual persist-before-publish, or pushed to the owning peer, whose
// /v1/accept applies the same discipline before acknowledging.
func (s *Server) placePiece(pk catalog.Key, syn probsyn.Synopsis) error {
	if s.clustered() {
		if owner := s.pieceOwner(pk.Filename()); owner != s.cfg.Self {
			blob, err := probsyn.MarshalSynopsis(syn)
			if err != nil {
				return err
			}
			status, resp, err := s.remote.Do(owner, http.MethodPost,
				"/v1/accept?name="+url.QueryEscape(pk.Filename()), blob, "application/octet-stream")
			if err != nil {
				return fmt.Errorf("place piece %s on %s: %w", pk, owner, err)
			}
			if status != http.StatusOK {
				return fmt.Errorf("place piece %s on %s: %s", pk, owner, strings.TrimSpace(string(resp)))
			}
			return nil
		}
	}
	return s.publish(pk, syn, nil)
}

// maxAcceptBody bounds a pushed piece envelope. Synopses are tiny (B
// coefficients or buckets), but a piece of a very fine sweep could run
// to megabytes; 64 MiB is far above anything real without letting a
// hostile peer buffer unbounded memory.
const maxAcceptBody = 1 << 26

// handleAccept ingests a piece pushed by the building node: validate
// the name, decode the envelope, persist, then publish. The piece
// becomes servable only once it is durably on disk — acknowledging
// earlier would let the builder publish a merged whole whose piece
// vanishes on this node's restart.
func (s *Server) handleAccept(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	pk, err := catalog.ParseFilename(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad piece name %q: %v", name, err)
		return
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxAcceptBody)); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad piece body: %v", err)
		return
	}
	blob := bytes.Clone(buf.Bytes())
	syn, err := probsyn.UnmarshalSynopsis(blob)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "piece %s: %v", pk, err)
		return
	}
	// The envelope carries its own type; a histogram pushed under a
	// wavelet name would serve wrong answers forever.
	family := catalog.FamilyHistogram
	if _, ok := syn.(*probsyn.WaveletSynopsis); ok {
		family = catalog.FamilyWavelet
	}
	if family != pk.Family {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"piece %s: envelope holds a %s synopsis", pk, family)
		return
	}
	// Accepts change the catalog outside the job queue, so they carry
	// their own flat-file invalidation window.
	if s.flat != nil {
		s.flat.JobStart()
		defer s.flat.JobEnd()
	}
	if err := s.publish(pk, syn, blob); err != nil {
		writeError(w, http.StatusInternalServerError, CodeBuildFailed, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, BuildResponse{Key: pk, Status: "built"})
}

// handleBlob serves a cataloged synopsis's envelope bytes — the batch
// endpoint of a gathering node fetches remote pieces through it, once
// per key per batch, and compiles them locally. The catalog retains
// only decoded synopses, so the envelope is re-marshaled here; the
// codec is deterministic, so the bytes equal what was persisted.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	key, err := catalog.ParseFilename(name)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad synopsis name %q: %v", name, err)
		return
	}
	entry, ok := s.cfg.Catalog.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no synopsis for %s", key)
		return
	}
	blob, err := probsyn.MarshalSynopsis(entry.Synopsis)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeBuildFailed, "encode %s: %v", key, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// ---- gathered reads ----

// shardParams extracts the sharded-query parameters: &shards=k selects
// a k-way sharded build, and &shard=s (only meaningful with shards)
// addresses one piece in its local coordinates — the form a gathering
// coordinator sends to piece owners.
func shardParams(r *http.Request) (shard, shards int, hasShard bool, err error) {
	q := r.URL.Query()
	if raw := q.Get("shards"); raw != "" {
		if shards, err = strconv.Atoi(raw); err != nil || shards < 0 {
			return 0, 0, false, fmt.Errorf("bad shards %q", raw)
		}
	}
	if raw := q.Get("shard"); raw != "" {
		if shard, err = strconv.Atoi(raw); err != nil {
			return 0, 0, false, fmt.Errorf("bad shard %q", raw)
		}
		if shards < 2 {
			return 0, 0, false, fmt.Errorf("shard=%d needs shards >= 2", shard)
		}
		hasShard = true
	}
	return shard, shards, hasShard, nil
}

// parseKey resolves the key query parameters without requiring a
// catalog entry — the sharded read paths address keys whose whole lives
// on another node. Same canonicalization as lookup.
func (s *Server) parseKey(w http.ResponseWriter, r *http.Request) (catalog.Key, bool) {
	q := r.URL.Query()
	budget, err := strconv.Atoi(q.Get("budget"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad budget %q", q.Get("budget"))
		return catalog.Key{}, false
	}
	c := s.cfg.C
	if raw := q.Get("c"); raw != "" {
		if c, err = strconv.ParseFloat(raw, 64); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad c %q", raw)
			return catalog.Key{}, false
		}
	}
	quant := 0
	if raw := q.Get("q"); raw != "" {
		if quant, err = strconv.Atoi(raw); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "bad q %q", raw)
			return catalog.Key{}, false
		}
	}
	key, err := catalog.NewKeyQ(q.Get("dataset"), q.Get("family"), q.Get("metric"), budget, c, quant)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return catalog.Key{}, false
	}
	return key, true
}

// shardedBounds recomputes the build's global shard boundaries from the
// dataset — the same probsyn.ShardBounds the build used, so gathered
// coordinates always agree with how the pieces were cut.
func (s *Server) shardedBounds(key catalog.Key, k int) ([]int, error) {
	src, err := s.dataset(key.Dataset)
	if err != nil {
		return nil, err
	}
	return probsyn.ShardBounds(src.Domain(), k, key.Family == catalog.FamilyWavelet), nil
}

// handleShardedRangeSum answers GET /v1/rangesum for a sharded key:
// the &shard=s form answers from the local piece; otherwise this node
// coordinates (forwarding to the dataset owner first when it is not
// us), splitting the range at the shard boundaries and summing the
// piece owners' partials, fanned out concurrently.
func (s *Server) handleShardedRangeSum(w http.ResponseWriter, r *http.Request, shard, shards int, hasShard bool) {
	key, ok := s.parseKey(w, r)
	if !ok {
		return
	}
	lo, err := intParam(r, "lo")
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	hi, err := intParam(r, "hi")
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if lo > hi {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "empty range [%d, %d]", lo, hi)
		return
	}
	if hasShard {
		pk, err := key.Piece(shard, shards)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
		entry, ok := s.cfg.Catalog.Get(pk)
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound, "no synopsis for %s", pk)
			return
		}
		n := entry.Synopsis.Domain()
		if hi < 0 || lo >= n {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "range [%d, %d] outside domain [0, %d)", lo, hi, n)
			return
		}
		lo, hi = max(lo, 0), min(hi, n-1)
		writeJSON(w, http.StatusOK, RangeSumResponse{Key: pk, Lo: lo, Hi: hi, Sum: entry.Querier.RangeSum(lo, hi)})
		return
	}
	if s.clustered() {
		if owner := s.datasetOwner(key.Dataset); owner != s.cfg.Self {
			s.forward(w, owner, http.MethodGet, r.URL.RequestURI(), nil, "")
			return
		}
	}
	bounds, err := s.shardedBounds(key, shards)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "%v", err)
		return
	}
	n := bounds[shards]
	if hi < 0 || lo >= n {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "range [%d, %d] outside domain [0, %d)", lo, hi, n)
		return
	}
	lo, hi = max(lo, 0), min(hi, n-1)
	// The shards whose span [bounds[i], bounds[i+1]) meets [lo, hi].
	type part struct{ shard, llo, lhi int }
	var parts []part
	for i := 0; i < shards; i++ {
		if bounds[i] > hi || bounds[i+1]-1 < lo {
			continue
		}
		parts = append(parts, part{i, max(lo, bounds[i]) - bounds[i], min(hi, bounds[i+1]-1) - bounds[i]})
	}
	sums := make([]float64, len(parts))
	err = engine.Fan(len(parts), len(parts), func(i int) error {
		v, err := s.pieceRangeSum(key, parts[i].shard, shards, parts[i].llo, parts[i].lhi)
		if err != nil {
			return err
		}
		sums[i] = v
		return nil
	})
	if err != nil {
		writeError(w, http.StatusBadGateway, CodePeerUnavailable, "%v", err)
		return
	}
	sum := 0.0
	for _, v := range sums {
		sum += v
	}
	writeJSON(w, http.StatusOK, RangeSumResponse{Key: key, Lo: lo, Hi: hi, Sum: sum})
}

// handleShardedEstimate answers GET /v1/estimate for a sharded key: an
// estimate touches exactly one piece, so there is no gather — just a
// route to the piece that owns item i.
func (s *Server) handleShardedEstimate(w http.ResponseWriter, r *http.Request, shard, shards int, hasShard bool) {
	key, ok := s.parseKey(w, r)
	if !ok {
		return
	}
	i, err := intParam(r, "i")
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if hasShard {
		pk, err := key.Piece(shard, shards)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
		entry, ok := s.cfg.Catalog.Get(pk)
		if !ok {
			writeError(w, http.StatusNotFound, CodeNotFound, "no synopsis for %s", pk)
			return
		}
		if n := entry.Synopsis.Domain(); i < 0 || i >= n {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "item %d outside domain [0, %d)", i, n)
			return
		}
		writeJSON(w, http.StatusOK, EstimateResponse{Key: pk, I: i, Estimate: entry.Querier.Estimate(i)})
		return
	}
	if s.clustered() {
		if owner := s.datasetOwner(key.Dataset); owner != s.cfg.Self {
			s.forward(w, owner, http.MethodGet, r.URL.RequestURI(), nil, "")
			return
		}
	}
	bounds, err := s.shardedBounds(key, shards)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "%v", err)
		return
	}
	n := bounds[shards]
	if i < 0 || i >= n {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "item %d outside domain [0, %d)", i, n)
		return
	}
	owning := 0
	for bounds[owning+1] <= i {
		owning++
	}
	v, err := s.pieceEstimate(key, owning, shards, i-bounds[owning])
	if err != nil {
		writeError(w, http.StatusBadGateway, CodePeerUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{Key: key, I: i, Estimate: v})
}

// cachedPiece is one compiled remote piece: the querier and its local
// domain size, everything a gather needs to answer without the peer.
type cachedPiece struct {
	querier query.Querier
	domain  int
}

// pieceRangeSum answers one shard's subrange, from the local catalog
// when the piece is here, from the (fetch-once) compiled remote piece
// otherwise.
func (s *Server) pieceRangeSum(key catalog.Key, shard, shards, llo, lhi int) (float64, error) {
	q, n, err := s.pieceQuerier(key, shard, shards)
	if err != nil {
		return 0, err
	}
	llo, lhi = max(llo, 0), min(lhi, n-1)
	if llo > lhi {
		return 0, nil
	}
	return q.RangeSum(llo, lhi), nil
}

// pieceEstimate answers one piece-local estimate, local or remote like
// pieceRangeSum.
func (s *Server) pieceEstimate(key catalog.Key, shard, shards, i int) (float64, error) {
	q, n, err := s.pieceQuerier(key, shard, shards)
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= n {
		return 0, fmt.Errorf("item %d outside piece %d/%d domain [0, %d)", i, shard, shards, n)
	}
	return q.Estimate(i), nil
}

// pieceQuerier resolves one piece to a compiled querier and its local
// domain: the local catalog when the piece lives here, the remote-piece
// cache (filled by a one-time GET /v1/blob to the owner) otherwise.
func (s *Server) pieceQuerier(key catalog.Key, shard, shards int) (query.Querier, int, error) {
	pk, err := key.Piece(shard, shards)
	if err != nil {
		return nil, 0, err
	}
	if entry, ok := s.cfg.Catalog.Get(pk); ok {
		return entry.Querier, entry.Synopsis.Domain(), nil
	}
	cp, _, err := s.remotePiece(pk)
	if err != nil {
		return nil, 0, err
	}
	return cp.querier, cp.domain, nil
}

// remotePiece returns the compiled querier for a piece that lives on a
// peer, fetching its envelope once and caching the result when this
// node owns the piece's dataset (the owner coordinates every gather and
// every rebuild of the dataset, so its cache is invalidated by its own
// buildSharded; other nodes — the batch path can gather anywhere — skip
// the cache and stay fetch-per-use, trading a round trip for never
// serving a piece a rebuild they cannot observe made stale). The
// returned code distinguishes a missing piece (CodeNotFound) from an
// unreachable or misbehaving peer (CodePeerUnavailable).
func (s *Server) remotePiece(pk catalog.Key) (cachedPiece, string, error) {
	if !s.clustered() {
		return cachedPiece{}, CodeNotFound, fmt.Errorf("no synopsis for %s (build it first)", pk)
	}
	owner := s.pieceOwner(pk.Filename())
	if owner == s.cfg.Self {
		return cachedPiece{}, CodeNotFound, fmt.Errorf("no synopsis for %s (build it first)", pk)
	}
	cacheable := s.datasetOwner(pk.Dataset) == s.cfg.Self
	if cacheable {
		s.pieceMu.RLock()
		cp, ok := s.pieceCache[pk]
		s.pieceMu.RUnlock()
		if ok {
			return cp, "", nil
		}
	}
	status, resp, err := s.remote.Do(owner, http.MethodGet, "/v1/blob?name="+url.QueryEscape(pk.Filename()), nil, "")
	if err != nil {
		return cachedPiece{}, CodePeerUnavailable, fmt.Errorf("piece %s on %s: %w", pk, owner, err)
	}
	if status != http.StatusOK {
		return cachedPiece{}, CodeNotFound, fmt.Errorf("piece %s on %s: %s", pk, owner, strings.TrimSpace(string(resp)))
	}
	syn, err := probsyn.UnmarshalSynopsis(resp)
	if err != nil {
		return cachedPiece{}, CodePeerUnavailable, fmt.Errorf("piece %s on %s: %v", pk, owner, err)
	}
	cp := cachedPiece{querier: query.Compile(syn), domain: syn.Domain()}
	if cacheable {
		s.pieceMu.Lock()
		s.pieceCache[pk] = cp
		s.pieceMu.Unlock()
	}
	return cp, "", nil
}

// dropCachedPieces forgets the compiled remote pieces of one sharded
// build — called by the owner around redistribution, the only event
// that changes a piece's content under an unchanged key.
func (s *Server) dropCachedPieces(key catalog.Key, k int) {
	s.pieceMu.Lock()
	defer s.pieceMu.Unlock()
	for i := 0; i < k; i++ {
		if pk, err := key.Piece(i, k); err == nil {
			delete(s.pieceCache, pk)
		}
	}
}

// resolveShardedKey assembles the batch evaluator's querier for a
// sharded key: every piece is taken from the local catalog or from the
// compiled remote pieces (fetched once via GET /v1/blob), then composed
// into a query.ShardedQuerier — so a batch of thousands of ops costs at
// most k-1 piece fetches, not one network call per op, and on the
// dataset owner usually none at all (the fetches are cached).
func (s *Server) resolveShardedKey(key catalog.Key, shards int) (query.Querier, int, *query.OpError) {
	pieces := make([]query.Querier, shards)
	bounds := make([]int, shards+1)
	for i := 0; i < shards; i++ {
		pk, err := key.Piece(i, shards)
		if err != nil {
			return nil, 0, &query.OpError{Code: CodeBadRequest, Message: err.Error()}
		}
		if entry, ok := s.cfg.Catalog.Get(pk); ok {
			pieces[i] = entry.Querier
			bounds[i+1] = bounds[i] + entry.Synopsis.Domain()
			continue
		}
		cp, code, err := s.remotePiece(pk)
		if err != nil {
			return nil, 0, &query.OpError{Code: code, Message: err.Error()}
		}
		pieces[i] = cp.querier
		bounds[i+1] = bounds[i] + cp.domain
	}
	sq, err := query.NewSharded(pieces, bounds)
	if err != nil {
		return nil, 0, &query.OpError{Code: CodeBadRequest, Message: err.Error()}
	}
	return sq, sq.Domain(), nil
}

// newClusterState validates the peer configuration and returns the ring
// and forwarding client, or nils for a non-clustered server.
func newClusterState(cfg *Config) (*cluster.Ring, *cluster.Client, error) {
	if len(cfg.Peers) == 0 {
		if cfg.Self != "" {
			return nil, nil, fmt.Errorf("server: -self %q set without a peer list", cfg.Self)
		}
		return nil, nil, nil
	}
	found := false
	for _, p := range cfg.Peers {
		if p == cfg.Self {
			found = true
			break
		}
	}
	if !found {
		return nil, nil, fmt.Errorf("server: self %q is not in the peer list %v", cfg.Self, cfg.Peers)
	}
	ring, err := cluster.NewRing(cfg.Peers, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("server: %w", err)
	}
	return ring, cluster.NewClient(0), nil
}
