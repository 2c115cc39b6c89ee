// Command loadbench drives a running psynd over a real socket and
// reports read-path throughput and latency: queries per second with p50
// and p99 latency for three scenarios — single /v1/estimate round trips,
// single /v1/rangesum round trips, and 100-op mixed /v1/query batches.
//
// The output is a JSON array shaped like scripts/bench_json.sh entries
// (name, iters, ns_per_op) with the load-test fields alongside (p50_ns,
// p99_ns, qps), so scripts/bench_gate.sh can carry loadbench results in
// the same snapshot as the go-test benchmarks. ns_per_op is the p50
// latency: the representative per-request cost, robust to tail noise on
// shared CI runners.
//
// Example (against a psynd with dataset "ds" built at budget 8):
//
//	loadbench -addr http://127.0.0.1:7075 -dataset ds -budget 8 -domain 256
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probsyn/internal/query"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadbench:", err)
		os.Exit(1)
	}
}

// result is one scenario's measurement, serialized in the bench_json.sh
// entry shape plus the load-test fields.
type result struct {
	Name    string  `json:"name"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"` // p50 latency
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
	QPS     float64 `json:"qps"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadbench", flag.ContinueOnError)
	var (
		flagAddr     = fs.String("addr", "http://127.0.0.1:7075", "psynd base URL")
		flagDataset  = fs.String("dataset", "ds", "dataset name the synopses were built for")
		flagMetric   = fs.String("metric", "SSE", "metric of the built synopses")
		flagBudget   = fs.Int("budget", 8, "budget of the built synopses (both families must be cataloged)")
		flagDomain   = fs.Int("domain", 256, "dataset domain size, bounding query items and ranges")
		flagDuration = fs.Duration("duration", 3*time.Second, "measurement window per scenario")
		flagConns    = fs.Int("conns", 4, "concurrent client connections")
		flagOut      = fs.String("out", "", "write the JSON results here (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flagDomain < 2 || *flagConns < 1 {
		return fmt.Errorf("need -domain >= 2 and -conns >= 1")
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *flagConns}}
	n := *flagDomain
	estimateURL := func(seq int) string {
		return fmt.Sprintf("%s/v1/estimate?dataset=%s&family=histogram&metric=%s&budget=%d&i=%d",
			*flagAddr, *flagDataset, *flagMetric, *flagBudget, seq%n)
	}
	rangeURL := func(seq int) string {
		lo := seq % (n / 2)
		return fmt.Sprintf("%s/v1/rangesum?dataset=%s&family=histogram&metric=%s&budget=%d&lo=%d&hi=%d",
			*flagAddr, *flagDataset, *flagMetric, *flagBudget, lo, lo+n/2)
	}
	batchBody, err := buildBatch(*flagDataset, *flagMetric, *flagBudget, n)
	if err != nil {
		return err
	}

	var results []result
	scenarios := []struct {
		name string
		do   func(seq int) error
	}{
		{"LoadbenchEstimate", func(seq int) error { return get(client, estimateURL(seq)) }},
		{"LoadbenchRangeSum", func(seq int) error { return get(client, rangeURL(seq)) }},
		{"LoadbenchQueryBatch100", func(seq int) error { return post(client, *flagAddr+"/v1/query", batchBody) }},
	}
	for _, sc := range scenarios {
		r, err := measure(sc.name, *flagDuration, *flagConns, sc.do)
		if err != nil {
			return fmt.Errorf("%s: %w", sc.name, err)
		}
		results = append(results, r)
		fmt.Fprintf(os.Stderr, "%s: %d requests, %.0f qps, p50 %.0f ns, p99 %.0f ns\n",
			r.Name, r.Iters, r.QPS, r.P50Ns, r.P99Ns)
	}

	// One entry per line in bench_json.sh's exact style ("key": value,
	// space after the colon): bench_gate.sh extracts name/ns fields
	// line-wise, and scripts/json_concat.sh merges arrays line-wise.
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range results {
		fmt.Fprintf(&buf, "  {\"name\": %q, \"iters\": %d, \"ns_per_op\": %.0f, \"p50_ns\": %.0f, \"p99_ns\": %.0f, \"qps\": %.1f}",
			r.Name, r.Iters, r.NsPerOp, r.P50Ns, r.P99Ns, r.QPS)
		if i < len(results)-1 {
			buf.WriteString(",")
		}
		buf.WriteString("\n")
	}
	buf.WriteString("]\n")
	if *flagOut != "" {
		return os.WriteFile(*flagOut, buf.Bytes(), 0o644)
	}
	_, err = stdout.Write(buf.Bytes())
	return err
}

// buildBatch assembles the 100-op mixed batch: half estimates, half
// range sums, alternating histogram and wavelet keys.
func buildBatch(dataset, metric string, budget, n int) ([]byte, error) {
	var req query.BatchRequest
	for i := 0; i < 100; i++ {
		family := "histogram"
		if i%2 == 1 {
			family = "wavelet"
		}
		k := query.BatchKey{Dataset: dataset, Family: family, Metric: metric, Budget: budget}
		if i%4 < 2 {
			req.Ops = append(req.Ops, query.Op{BatchKey: k, Op: query.OpEstimate, I: i % n})
		} else {
			lo := i % (n / 2)
			req.Ops = append(req.Ops, query.Op{BatchKey: k, Op: query.OpRangeSum, Lo: lo, Hi: lo + n/2})
		}
	}
	return json.Marshal(&req)
}

// measure runs do concurrently for the window and reduces the recorded
// latencies to p50/p99/QPS.
func measure(name string, window time.Duration, conns int, do func(seq int) error) (result, error) {
	deadline := time.Now().Add(window)
	latencies := make([][]int64, conns)
	errs := make([]error, conns)
	var seq atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s := int(seq.Add(1))
				t0 := time.Now()
				if err := do(s); err != nil {
					errs[w] = err
					return
				}
				latencies[w] = append(latencies[w], time.Since(t0).Nanoseconds())
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []int64
	for w := range latencies {
		if errs[w] != nil {
			return result{}, errs[w]
		}
		all = append(all, latencies[w]...)
	}
	if len(all) == 0 {
		return result{}, fmt.Errorf("no requests completed in %v", window)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(all)-1))
		return float64(all[i])
	}
	return result{
		Name:    name,
		Iters:   len(all),
		NsPerOp: pct(0.50),
		P50Ns:   pct(0.50),
		P99Ns:   pct(0.99),
		QPS:     float64(len(all)) / elapsed.Seconds(),
	}, nil
}

func get(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	return drain(resp)
}

func post(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return drain(resp)
}

// drain consumes and closes the body (keeping the connection reusable)
// and fails on any non-200 — a load test over failing requests measures
// nothing.
func drain(resp *http.Response) error {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", resp.Request.URL, resp.StatusCode)
	}
	return nil
}
