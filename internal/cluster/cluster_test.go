package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingDeterministicAndComplete(t *testing.T) {
	peers := []string{"a:1", "b:2", "c:3"}
	r1, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	hit := make(map[string]int)
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("ds/dataset-%d", i)
		o := r1.Owner(key)
		if o2 := r2.Owner(key); o2 != o {
			t.Fatalf("rings disagree on %q: %q vs %q", key, o, o2)
		}
		hit[o]++
	}
	for _, p := range peers {
		if hit[p] == 0 {
			t.Fatalf("peer %q owns nothing of 3000 keys: %v", p, hit)
		}
		if hit[p] < 300 {
			t.Fatalf("peer %q owns only %d of 3000 keys — badly unbalanced: %v", p, hit[p], hit)
		}
	}
}

func TestRingStabilityUnderPeerAddition(t *testing.T) {
	r3, _ := NewRing([]string{"a:1", "b:2", "c:3"}, 0)
	r4, _ := NewRing([]string{"a:1", "b:2", "c:3", "d:4"}, 0)
	moved := 0
	const n = 3000
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		if r3.Owner(key) != r4.Owner(key) {
			moved++
		}
	}
	// Consistent hashing moves ~1/4 of keys when a 4th peer joins; a
	// modulo placement would move ~3/4. Allow slack for vnode variance.
	if moved > n/2 {
		t.Fatalf("%d of %d keys moved on peer addition — placement is not consistent", moved, n)
	}
}

func TestRingRejectsBadPeerLists(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 0); err == nil {
		t.Fatal("empty peer address accepted")
	}
}

func TestRingFingerprint(t *testing.T) {
	fp := func(peers ...string) string {
		r, err := NewRing(peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r.Fingerprint()
	}
	same := fp("a:1", "b:2")
	if same == "" || same != fp("a:1", "b:2") {
		t.Fatalf("equal lists fingerprint %q and %q", same, fp("a:1", "b:2"))
	}
	for name, other := range map[string]string{
		"reordered": fp("b:2", "a:1"),
		"one more":  fp("a:1", "b:2", "c:3"),
		"respelled": fp("a:1", "localhost:2"),
		"re-cut":    fp("a:1b", ":2"),
		"single":    fp("a:1"),
	} {
		if other == same {
			t.Errorf("%s peer list has the fingerprint of [a:1 b:2]", name)
		}
	}
}

func TestClientForwardsAndRelaysStatus(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if r.URL.Path == "/v1/teapot" {
			w.WriteHeader(http.StatusTeapot)
			fmt.Fprint(w, `{"error":{"code":"teapot"}}`)
			return
		}
		body := make([]byte, 64)
		n, _ := r.Body.Read(body)
		fmt.Fprintf(w, "echo:%s:%s", r.Header.Get("X-Test"), body[:n])
	}))
	defer srv.Close()
	peer := strings.TrimPrefix(srv.URL, "http://")
	c := NewClient()
	status, resp, err := c.Do(peer, http.MethodPost, "/v1/echo", []byte("hi"), http.Header{"X-Test": {"hdr"}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || string(resp) != "echo:hdr:hi" {
		t.Fatalf("got %d %q", status, resp)
	}
	// HTTP-level errors relay without retrying.
	before := calls.Load()
	status, resp, err = c.Do(peer, http.MethodGet, "/v1/teapot", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTeapot || !strings.Contains(string(resp), "teapot") {
		t.Fatalf("got %d %q", status, resp)
	}
	if calls.Load() != before+1 {
		t.Fatalf("HTTP error retried: %d calls", calls.Load()-before)
	}
	// Transport-level failures surface as errors after the one retry.
	if _, _, err := c.Do("127.0.0.1:1", http.MethodGet, "/v1/x", nil, nil); err == nil {
		t.Fatal("dead peer did not error")
	}
}

// A stalled peer fails a read at the read deadline; a build sent to the
// same peer is still being waited for long after it.
func TestClientDeadlineByMethod(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		fmt.Fprint(w, "late")
	}))
	defer srv.Close()
	peer := strings.TrimPrefix(srv.URL, "http://")
	c := NewClient()
	if c.readTimeout >= c.writeTimeout {
		t.Fatalf("read deadline %v is not shorter than the build deadline %v", c.readTimeout, c.writeTimeout)
	}
	c.readTimeout = 50 * time.Millisecond

	built := make(chan error, 1)
	go func() {
		status, resp, err := c.Do(peer, http.MethodPost, "/v1/build", []byte("{}"), nil)
		if err == nil && (status != http.StatusOK || string(resp) != "late") {
			err = fmt.Errorf("got %d %q", status, resp)
		}
		built <- err
	}()
	start := time.Now()
	if _, _, err := c.Do(peer, http.MethodGet, "/v1/estimate", nil, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled read: %v, want a deadline error", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("stalled read took %v against a 50 ms deadline", took)
	}
	select {
	case err := <-built:
		t.Fatalf("the build gave up with the read: %v", err)
	case <-time.After(4 * c.readTimeout):
	}
	close(release)
	if err := <-built; err != nil {
		t.Fatalf("build against a slow peer: %v", err)
	}
}

func TestPeerURL(t *testing.T) {
	for in, want := range map[string]string{
		"localhost:8080":         "http://localhost:8080",
		"http://h:1/":            "http://h:1",
		"https://secure.example": "https://secure.example",
	} {
		if got := PeerURL(in); got != want {
			t.Fatalf("PeerURL(%q) = %q, want %q", in, got, want)
		}
	}
}
