package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
)

// The server builds unsharded only: a build or sweep body with shards
// other than 0 or 1 is a 400 naming psyn -shards, answered before anything
// is queued or read, whether or not the client waits and whatever the
// family. A merge is not the build its key names, so it has no key to
// serve under.
func TestShardedBuildRejected(t *testing.T) {
	s, ts, _ := newFixture(t, Config{})
	for _, path := range []string{"/v1/build", "/v1/sweep"} {
		for _, family := range []string{"histogram", "wavelet"} {
			for _, shards := range []int{-2, 2, 4} {
				for _, wait := range []bool{true, false} {
					req := BuildRequest{Dataset: "ds", Family: family, Metric: "SAE", Budget: 8, Shards: shards, Wait: wait}
					t.Run(fmt.Sprintf("%s/%s/k=%d/wait=%v", path, family, shards, wait), func(t *testing.T) {
						body, err := json.Marshal(req)
						if err != nil {
							t.Fatal(err)
						}
						resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
						if err != nil {
							t.Fatal(err)
						}
						defer resp.Body.Close()
						var bad ErrorBody
						if err := json.NewDecoder(resp.Body).Decode(&bad); err != nil {
							t.Fatal(err)
						}
						if resp.StatusCode != http.StatusBadRequest || bad.Error.Code != CodeBadRequest ||
							!strings.Contains(bad.Error.Message, "psyn -shards") {
							t.Fatalf("status %d, error %+v; want 400 bad_request naming psyn -shards", resp.StatusCode, bad)
						}
					})
				}
			}
		}
	}
	s.pendingMu.Lock()
	pending := len(s.pending)
	s.pendingMu.Unlock()
	s.dsMu.RLock()
	parsed := len(s.datasets)
	s.dsMu.RUnlock()
	des, err := os.ReadDir(s.cfg.CatalogDir)
	if err != nil {
		t.Fatal(err)
	}
	if pending != 0 || len(s.queue) != 0 || parsed != 0 || s.cfg.Catalog.Len() != 0 || len(des) != 0 {
		t.Fatalf("refused builds left %d pending jobs, %d queued, %d datasets parsed, %d catalog entries, %d files",
			pending, len(s.queue), parsed, s.cfg.Catalog.Len(), len(des))
	}
}
