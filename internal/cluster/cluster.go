// Package cluster is the serving layer's placement and forwarding
// substrate: a consistent-hash ring over a static peer list, and a
// small HTTP client for peer-to-peer forwarding with per-peer
// connection reuse, a deadline chosen by the request's method, and one
// retry for reads.
//
// Placement is coordination-free: every node runs the same ring over
// the same -peers list, so any node resolves a dataset name to the same
// owner without gossip or a coordinator. Nodes whose lists differ would
// route differently; Ring.Fingerprint is what they compare to notice.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultVnodes is the virtual-node count per peer: enough that a
// handful of peers split keyspace within a few percent of evenly, small
// enough that ring construction and lookup stay trivial.
const DefaultVnodes = 64

// Ring is an immutable consistent-hash ring over a peer list. Keys hash
// onto a 64-bit circle populated with vnodes virtual points per peer;
// Owner walks clockwise to the first point. Adding or removing one peer
// moves only ~1/len(peers) of the keyspace, so a cluster restarted with
// one peer more keeps most placements.
type Ring struct {
	peers       []string
	points      []ringPoint // sorted by hash
	fingerprint string
}

type ringPoint struct {
	hash uint64
	peer int
}

// NewRing builds a ring over the peer addresses. Peers must be
// non-empty and distinct; vnodes <= 0 means DefaultVnodes.
func NewRing(peers []string, vnodes int) (*Ring, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(peers))
	r := &Ring{
		peers:       append([]string(nil), peers...),
		fingerprint: strconv.FormatUint(hash64(strings.Join(peers, "\x00")), 16),
	}
	for i, p := range peers {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer address at index %d", i)
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", p, v)), i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash ties (vanishingly rare) break by peer index so every node
		// sorts identically whatever its sort's tie behavior.
		return r.points[a].peer < r.points[b].peer
	})
	return r, nil
}

// Owner returns the peer owning the key: the first ring point at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.peers[r.points[i].peer]
}

// Fingerprint identifies the ordered peer list the ring was built over:
// two rings route every key alike exactly when their lists, and so
// their fingerprints, are equal.
func (r *Ring) Fingerprint() string { return r.fingerprint }

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s)
	return h.Sum64()
}

// Client is the peer-to-peer forwarding client. One Client serves every
// peer: the underlying transport keeps idle connections per host, so
// repeated forwards to the same peer reuse a connection instead of
// re-dialing.
type Client struct {
	http *http.Client
	// A forwarded GET answers from a catalog in microseconds of server
	// time; anything else may run a real DP on the owner before it
	// answers. Do picks the deadline from the method.
	readTimeout, writeTimeout time.Duration
}

// NewClient returns a forwarding client.
func NewClient() *Client {
	return &Client{
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			IdleConnTimeout:     90 * time.Second,
		}},
		readTimeout:  10 * time.Second,
		writeTimeout: 120 * time.Second,
	}
}

// Do sends one request to a peer — method, path with query ("/v1/build"
// or "/v1/rangesum?..."), optional body and headers — and returns the
// response status and body. A GET that fails at the transport layer
// (the peer restarting, a stale pooled connection) is retried once
// inside the same deadline; nothing else is, because a build or a
// mutation whose connection dropped may already have been applied.
// HTTP-level errors (4xx/5xx) are returned to the caller untouched,
// status and body intact, so a forwarding server can relay them
// verbatim.
func (c *Client) Do(peer, method, path string, body []byte, header http.Header) (int, []byte, error) {
	timeout, tries := c.writeTimeout, 1
	if method == http.MethodGet {
		timeout, tries = c.readTimeout, 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		status, resp, err := c.do(ctx, peer, method, path, body, header)
		if err == nil {
			return status, resp, nil
		}
		if tries--; tries == 0 {
			return 0, nil, fmt.Errorf("cluster: %s %s%s: %w", method, peer, path, err)
		}
	}
}

func (c *Client) do(ctx context.Context, peer, method, path string, body []byte, header http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, PeerURL(peer)+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for name, values := range header {
		req.Header[name] = values
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// PeerURL normalizes a peer address to a base URL: "host:port" gains
// the http scheme, a full URL passes through with any trailing slash
// trimmed.
func PeerURL(peer string) string {
	if !strings.Contains(peer, "://") {
		peer = "http://" + peer
	}
	return strings.TrimSuffix(peer, "/")
}
