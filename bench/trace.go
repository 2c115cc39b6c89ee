package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, when it started and
// ended (nanoseconds since the tracer was made), the span it ran inside
// (-1 for a root) and the op it belongs to (-1 for the layer probes).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run pays one nil check per boundary.
//
// Nesting follows a single stack: the benchmark is a closed loop with one
// client, so even when a span is opened on another goroutine (the HTTP
// server's handler, while the client blocks inside its round-trip span)
// opens and closes still arrive strictly nested. The mutex is for memory
// safety across those goroutines, not for ordering.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// setOp stamps every span opened from now on with op.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Start: int64(time.Since(t.t0))})
	t.mu.Unlock()
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each span's duration minus the part its direct
// children cover. Children of one parent never overlap here (one stack),
// so the covered part is the plain sum of child durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// layerShare is one row of the traced run's "where an op's time goes".
type layerShare struct {
	Name   string
	Calls  int
	SelfNs int64
}

// selfByName totals self time per span name over the spans of real ops
// (Op >= 0), largest first.
func selfByName(spans []span) []layerShare {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []layerShare
	for i, s := range spans {
		if s.Op < 0 {
			continue
		}
		k, ok := idx[s.Name]
		if !ok {
			k = len(rows)
			idx[s.Name] = k
			rows = append(rows, layerShare{Name: s.Name})
		}
		rows[k].Calls++
		rows[k].SelfNs += self[i]
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].SelfNs > rows[b].SelfNs })
	return rows
}

// durationsByName collects span durations (ns) per name.
func durationsByName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Unit     string `json:"unit"`
		Spans    []span `json:"spans"`
	}{workload, seed, "ns", spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
