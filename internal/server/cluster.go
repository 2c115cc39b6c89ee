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
//   - A read of a sharded key (&shards=k on the GETs, "shards" in a
//     batch op) resolves, like every read, through catalog.Resolve: the
//     k pieces' queriers compose into one query.ShardedQuerier, whose
//     range sums split at the shard boundaries and add the partials in
//     shard order and whose estimates route to the owning piece. A piece
//     cataloged here answers from the catalog; a remote one is fetched
//     from its owner (GET /v1/blob) and compiled, the missing ones
//     concurrently. A gathered GET first forwards to the dataset's
//     owner, the one node that keeps fetched pieces compiled — synopses
//     are tiny, so its steady-state gathers are purely local and the
//     scatter happens at build time and on first touch, not per query.
//     A batch resolves wherever it lands; off the owner, that is one
//     fetch per remote piece per batch.
//
// A node outside a cluster (empty peer list, or a single-entry one) is
// just an ordinary psynd; sharded builds and reads still work against
// locally built pieces, which is what the single-node tests exercise.
package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"strings"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/cluster"
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

// handleBlob serves a cataloged synopsis's envelope bytes — a node
// resolving a sharded key fetches the pieces it does not hold through it
// (remotePiece) and compiles them locally. The catalog retains
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

// ---- remote pieces ----

// remotePiece returns the compiled querier for a piece that lives on a
// peer, or (nil, nil) when no peer could hold it (not clustered, or the
// piece is this node's own to hold). The envelope is fetched once and
// the querier cached when this node owns the piece's dataset: the owner
// coordinates every gathered GET and every rebuild of the dataset, so
// its cache is invalidated by its own buildSharded. Other nodes — a
// batch gathers anywhere — stay fetch-per-use, trading a round trip for
// never serving a piece a rebuild they cannot observe made stale. The
// error code tells a missing piece (not_found) from an unreachable or
// misbehaving peer (peer_unavailable).
func (s *Server) remotePiece(pk catalog.Key) (query.Querier, *query.OpError) {
	if !s.clustered() {
		return nil, nil
	}
	owner := s.pieceOwner(pk.Filename())
	if owner == s.cfg.Self {
		return nil, nil
	}
	cacheable := s.datasetOwner(pk.Dataset) == s.cfg.Self
	if cacheable {
		s.pieceMu.RLock()
		q, ok := s.pieceCache[pk]
		s.pieceMu.RUnlock()
		if ok {
			return q, nil
		}
	}
	fail := func(code string, cause any) (query.Querier, *query.OpError) {
		return nil, &query.OpError{Code: code, Message: fmt.Sprintf("piece %s on %s: %v", pk, owner, cause)}
	}
	status, resp, err := s.remote.Do(owner, http.MethodGet, "/v1/blob?name="+url.QueryEscape(pk.Filename()), nil, "")
	if err != nil {
		return fail(CodePeerUnavailable, err)
	}
	if status != http.StatusOK {
		return fail(CodeNotFound, strings.TrimSpace(string(resp)))
	}
	syn, err := probsyn.UnmarshalSynopsis(resp)
	if err != nil {
		return fail(CodePeerUnavailable, err)
	}
	q := query.Compile(syn)
	if cacheable {
		s.pieceMu.Lock()
		s.pieceCache[pk] = q
		s.pieceMu.Unlock()
	}
	return q, nil
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
