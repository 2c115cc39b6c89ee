package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"probsyn"
	"probsyn/internal/catalog"
)

// A k-shard build publishes exactly one thing: the merged synopsis, under
// the ordinary key, byte for byte what probsyn.BuildSharded returns. The
// response carries the bound that prices the trade.
func TestShardedBuildSingleNode(t *testing.T) {
	s, ts, src := newFixture(t, Config{C: 0.5})
	const k = 4
	for built, metric := range []string{"SSE", "MAE"} {
		resp, ok, bad := postBuild(t, ts, BuildRequest{
			Dataset: "ds", Family: catalog.FamilyHistogram, Metric: metric, Budget: 8, Shards: k, Wait: true,
		})
		if resp.StatusCode != http.StatusOK || ok.Status != "built" {
			t.Fatalf("%s sharded build: status %d %q, error %+v", metric, resp.StatusCode, ok.Status, bad)
		}
		key, err := catalog.NewKey("ds", catalog.FamilyHistogram, metric, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := probsyn.ParseMetric(metric)
		ref, err := probsyn.BuildSharded(src, m, 8, k)
		if err != nil {
			t.Fatal(err)
		}
		want, err := probsyn.MarshalSynopsis(ref.Synopsis)
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(filepath.Join(s.cfg.CatalogDir, key.Filename()))
		if err != nil || !bytes.Equal(file, want) {
			t.Fatalf("%s: catalog file differs from BuildSharded's merged synopsis (%v)", key, err)
		}
		des, err := os.ReadDir(s.cfg.CatalogDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(des) != built+1 || s.cfg.Catalog.Len() != built+1 {
			t.Fatalf("%d sharded builds left %d files and %d catalog entries", built+1, len(des), s.cfg.Catalog.Len())
		}
		// The certificate: the merged cost is within bound of the
		// unsharded optimum.
		if ok.Bound != ref.Bound {
			t.Fatalf("%s: response bound %v, BuildSharded says %v", key, ok.Bound, ref.Bound)
		}
		unsharded, err := probsyn.Build(src, m, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got := ref.Synopsis.ErrorCost(); got > unsharded.ErrorCost()+ok.Bound {
			t.Fatalf("%s: sharded cost %v exceeds unsharded %v + bound %v", key, got, unsharded.ErrorCost(), ok.Bound)
		}
		// Reads cannot tell: &shards= is not read.
		plain := fmt.Sprintf("%s/v1/rangesum?dataset=ds&family=histogram&metric=%s&budget=8&lo=5&hi=40", ts.URL, metric)
		_, a := getBody(t, plain)
		status, b := getBody(t, plain+"&shards=4")
		if status != http.StatusOK || !bytes.Equal(a, b) {
			t.Fatalf("%s: &shards=4 changed the answer (%d):\n%s\n%s", key, status, a, b)
		}
	}
}

// A sharded build the library would refuse is refused at request time,
// before it is queued, whether or not the client waits: a wavelet (exact,
// greedy or quantized), a histogram whose budget is below its shard
// count, and any sharded sweep. Nothing is built or cataloged.
func TestShardedBuildRejections(t *testing.T) {
	s, ts, _ := newFixture(t, Config{})
	for name, req := range map[string]BuildRequest{
		"negative shards":      {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Shards: -2},
		"wavelet":              {Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Shards: 2},
		"wavelet SSE":          {Dataset: "ds", Family: "wavelet", Metric: "SSE", Budget: 8, Shards: 4},
		"quantized":            {Dataset: "ds", Family: "wavelet", Metric: "SAE", Budget: 4, Quantize: 4, Shards: 2},
		"budget below shards":  {Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 3, Shards: 4},
		"budget one, 2 shards": {Dataset: "ds", Family: "histogram", Metric: "SAE", Budget: 1, Shards: 2},
	} {
		t.Run(name, func(t *testing.T) {
			for _, wait := range []bool{true, false} {
				req.Wait = wait
				resp, _, bad := postBuild(t, ts, req)
				if resp.StatusCode != http.StatusBadRequest || bad.Error.Code != CodeBadRequest {
					t.Fatalf("wait %v: status %d, error %+v", wait, resp.StatusCode, bad)
				}
			}
		})
	}
	t.Run("sweep", func(t *testing.T) {
		body, _ := json.Marshal(BuildRequest{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 4, Shards: 2})
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("sharded sweep: status %d", resp.StatusCode)
		}
	})
	if n := s.cfg.Catalog.Len(); n != 0 {
		t.Fatalf("refused builds left %d catalog entries", n)
	}
}
