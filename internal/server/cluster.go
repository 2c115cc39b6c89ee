// Cluster mode: several psynd processes started with the same -peers
// list split the datasets between them with no coordinator. Every node
// derives the same consistent-hash ring from the list
// (internal/cluster), so a dataset has one owner (ring key
// "ds/<dataset>") that every node computes alike, and the cluster is one
// rule, stated in route:
//
//	a request that names one dataset — build, sweep, append, update,
//	GET estimate, GET rangesum — is served by that dataset's owner;
//	any other node forwards it there verbatim and relays the answer.
//
// Only the owner holds a dataset's file, live frontiers and catalog
// entries, so N nodes hold N times the datasets. A POST /v1/query batch
// may name many datasets and is answered by the node it lands on; an op
// whose dataset lives elsewhere fails not_found, naming the owner.
//
// A forwarded request carries the sender's ring fingerprint in
// ringHeader. The receiver refuses it (409 ring_mismatch) when its own
// peer list differs — the two nodes disagree on who owns what — and
// serves it itself otherwise, never forwarding a second time, so no
// request can bounce between nodes.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"probsyn/internal/cluster"
)

// ringHeader marks a forwarded request and carries the fingerprint of
// the forwarding node's peer list.
const ringHeader = "X-Psyn-Ring"

// owner returns the ring owner of a dataset and whether that is another
// node. Outside a cluster every dataset is this node's own.
func (s *Server) owner(dataset string) (peer string, elsewhere bool) {
	if s.ring == nil {
		return "", false
	}
	peer = s.ring.Owner("ds/" + dataset)
	return peer, peer != s.cfg.Self
}

// route wraps the handler of an endpoint that names one dataset (in the
// query string of a GET, in the JSON body of a POST) with the cluster's
// rule. The dataset name is all it reads: a request it cannot find one
// in goes to the local handler, whose validation words the error, and a
// forwarded request is validated by the owner alone.
func (s *Server) route(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if from := r.Header.Get(ringHeader); from != "" {
			// Forwarded once already: served here or refused, never sent on.
			if s.ring == nil || from != s.ring.Fingerprint() {
				writeError(w, http.StatusConflict, CodeRingMismatch,
					"forwarded by a node whose -peers list differs from this node's; no dataset is routed until the lists agree")
				return
			}
			h(w, r)
			return
		}
		if s.ring == nil {
			h(w, r)
			return
		}
		// The name is read as the handler will read it (parseRead's scan of
		// the query string, or encoding/json's member matching), so the two
		// cannot disagree.
		var body []byte
		var named struct {
			Dataset string `json:"dataset"`
		}
		if r.Method == http.MethodGet {
			named.Dataset = queryParam(r.URL.RawQuery, "dataset")
		} else {
			// maxMutateBody is the largest body any routed endpoint takes;
			// the handler that ends up serving applies its own bound.
			var err error
			if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxMutateBody)); err != nil {
				writeError(w, http.StatusBadRequest, CodeBadRequest, "bad request body: %v", err)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			_ = json.Unmarshal(body, &named)
		}
		peer, elsewhere := s.owner(named.Dataset)
		if !elsewhere || named.Dataset == "" {
			h(w, r)
			return
		}
		header := http.Header{ringHeader: {s.ring.Fingerprint()}}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			header.Set("Content-Type", ct)
		}
		// The peer's typed errors are this API's typed errors; only a
		// transport failure is translated.
		status, resp, err := s.remote.Do(peer, r.Method, r.URL.RequestURI(), body, header)
		if err != nil {
			writeError(w, http.StatusBadGateway, CodePeerUnavailable, "peer %s: %v", peer, err)
			return
		}
		setJSON(w)
		w.WriteHeader(status)
		_, _ = w.Write(resp)
	}
}

// newClusterState validates the peer configuration and returns the ring
// and forwarding client, or nils for a server outside a cluster.
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
	return ring, cluster.NewClient(), nil
}
