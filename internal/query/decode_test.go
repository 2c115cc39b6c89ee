package query

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// decodeBoth runs DecodeBatch and plain json.Unmarshal (into a fresh
// request) on the same input and fails unless they agree on both the
// result and the error text. Returns the DecodeBatch outcome.
func decodeBoth(t testing.TB, data []byte) (BatchRequest, error) {
	t.Helper()
	var fast BatchRequest
	fastErr := DecodeBatch(data, &fast)
	var ref BatchRequest
	refErr := json.Unmarshal(data, &ref)
	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("DecodeBatch(%q) err = %v, json.Unmarshal err = %v", data, fastErr, refErr)
	}
	if fastErr != nil && fastErr.Error() != refErr.Error() {
		t.Fatalf("DecodeBatch(%q) err = %q, json.Unmarshal err = %q", data, fastErr, refErr)
	}
	if fastErr == nil && !reflect.DeepEqual(normOps(fast.Ops), normOps(ref.Ops)) {
		t.Fatalf("DecodeBatch(%q) = %+v, json.Unmarshal = %+v", data, fast.Ops, ref.Ops)
	}
	return fast, fastErr
}

// normOps maps empty to nil so a reused-capacity []Op{} compares equal
// to the fresh decoder's nil.
func normOps(ops []Op) []Op {
	if len(ops) == 0 {
		return nil
	}
	return ops
}

func TestDecodeBatchMatchesStdlibRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	datasets := []string{"ds", "live", "traffic-2024", "x"}
	families := []string{"histogram", "wavelet", "bogus"}
	metrics := []string{"SSE", "SAE", "SSRE", "SARE"}
	opNames := []string{OpEstimate, OpRangeSum, "mystery"}
	for trial := 0; trial < 300; trial++ {
		var req BatchRequest
		for i := rng.Intn(20); i > 0; i-- {
			op := Op{
				BatchKey: BatchKey{
					Dataset: datasets[rng.Intn(len(datasets))],
					Family:  families[rng.Intn(len(families))],
					Metric:  metrics[rng.Intn(len(metrics))],
					Budget:  rng.Intn(40) - 4,
				},
				Op: opNames[rng.Intn(len(opNames))],
				I:  rng.Intn(600) - 50,
				Lo: rng.Intn(600) - 50,
				Hi: rng.Intn(600) - 50,
			}
			if rng.Intn(3) == 0 {
				op.C = float64(rng.Intn(1000)) / 256
			}
			req.Ops = append(req.Ops, op)
		}
		data, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeBoth(t, data)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !reflect.DeepEqual(normOps(got.Ops), normOps(req.Ops)) {
			t.Fatalf("trial %d: round trip mismatch:\n got %+v\nwant %+v", trial, got.Ops, req.Ops)
		}
	}
}

// TestDecodeBatchMatchesStdlibCorpus pins equivalence on the inputs
// the scanner punts on: escapes, case-variant and unknown members,
// number edge cases, structural junk. Each must produce exactly the
// stdlib's result or exactly the stdlib's error.
func TestDecodeBatchMatchesStdlibCorpus(t *testing.T) {
	corpus := []string{
		`{}`,
		`  {  }  `,
		`{"ops":[]}`,
		`{"ops":null}`,
		`{"ops":[{}]}`,
		"\t{\n\"ops\" : [ { \"dataset\" : \"ds\" , \"i\" : 3 } ] }\r\n",
		`{"ops":[{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"op":"estimate","i":42}]}`,
		`{"ops":[{"dataset":"ds","budget":8,"op":"rangesum","lo":-3,"hi":17,"c":0.5}]}`,
		`{"ops":[{"c":1e3},{"c":0.25},{"c":2.5e-2},{"c":-0.125}]}`,
		`{"ops":[{"c":0},{"c":-0},{"c":-0.0e7},{"c":0.5},{"c":5e-1},{"c":-0.5}]}`, // -0 in three spellings
		`{"ops":[{"dataset":"a"},{"dataset":""},{},{"dataset":"a","family":""},{"family":"a"}]}`,
		`{"ops":[{"budget":1,"q":2},{"budget":2,"q":1},{"q":2,"budget":1},{"budget":1,"q":2,"budget":3}]}`,
		`{"ops":[{"dataset":"ds","family":"wavelet","metric":"SAE","budget":8,"q":16,"op":"estimate","i":1}]}`,
		`{"ops":[{"q":0},{"q":-4},{"q":2.5}]}`, // float into q: stdlib error
		`{"ops":[{"i":0},{"i":-0},{"budget":1000000000}]}`,
		`{"Ops":[{"i":1}]}`,                    // case-variant top-level member
		`{"ops":[{"Dataset":"ds"}]}`,           // case-variant op member
		`{"ops":[{"dataset":"\u0064s"}]}`,      // \u escape
		`{"ops":[{"dataset":"a\"b"}]}`,         // escaped quote
		`{"ops":[{"dataset":"π"}]}`,            // non-ASCII
		`{"ops":[{"unknown":7}]}`,              // unknown member (stdlib ignores)
		`{"ops":[{"i":1,"i":2}]}`,              // duplicate member, last wins
		`{"ops":[{"i":1}],"ops":[{"i":2}]}`,    // duplicate top-level member
		`{"ops":[{"i":1}],"extra":true}`,       // extra top-level member
		`{"ops":[{"i":2.5}]}`,                  // float into int: stdlib error
		`{"ops":[{"i":1e2}]}`,                  // exponent into int: stdlib error
		`{"ops":[{"i":01}]}`,                   // leading zero: invalid JSON
		`{"ops":[{"c":.5}]}`,                   // bare fraction: invalid JSON
		`{"ops":[{"c":1.}]}`,                   // trailing dot: invalid JSON
		`{"ops":[{"c":1e}]}`,                   // empty exponent: invalid JSON
		`{"ops":[{"c":1e999}]}`,                // out of range: stdlib error
		`{"ops":[{"i":99999999999999999999}]}`, // int overflow: stdlib error
		`{"ops":[{"dataset":42}]}`,             // number into string
		`{"ops":[{"i":"3"}]}`,                  // string into int
		`{"ops":{"i":1}}`,                      // object where array expected
		`[{"i":1}]`,                            // array at top level
		`{"ops":[{"i":1}]}trailing`,            // trailing garbage
		`{"ops":[{"i":1}]} `,                   // trailing whitespace only
		`{nope`, `{"ops":[`, `{"ops":[{]}`, ``, `null`, `true`,
	}
	for _, in := range corpus {
		t.Run(in, func(t *testing.T) { decodeBoth(t, []byte(in)) })
	}
}

// FuzzDecodeBatch differentially fuzzes the fast scanner against
// encoding/json: any input where they disagree — result or error text —
// is a bug in the scanner's fallback discipline. A body that decodes is
// then evaluated: EvalBatch must resolve exactly the first appearance of
// each key, in order, and answer each op per its own key.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(`{"ops":[{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"op":"estimate","i":42}]}`)
	f.Add(`{"ops":[{"dataset":"ds","c":2.5e-2,"lo":-3}]}`)
	f.Add(`{"ops":[{}]}`)
	f.Add(`{"ops":[{"dataset":"a","budget":1},{"dataset":"b","budget":1},{"dataset":"a","c":-0,"budget":1},{"dataset":"a","budget":1,"c":0}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		if req, err := decodeBoth(t, []byte(in)); err == nil {
			keys := firstAppearance(req.Ops)
			var calls []BatchKey
			var resp BatchResponse
			EvalBatch(&req, keyResolver(keys, &calls), &resp)
			if got, want := fmt.Sprint(calls), fmt.Sprint(keys); got != want {
				t.Fatalf("resolved\n %s\nwant first appearances\n %s", got, want)
			}
			checkPerOp(t, req.Ops, resp.Results, keyResolver(keys, nil))
		}
	})
}

// TestDecodeBatchClearsPooledOps is the pooled-reuse regression test:
// encoding/json decodes slice elements in place without zeroing fields
// the JSON omits, so a request decoded into reused capacity must not
// inherit field values from the previous request — on either path.
func TestDecodeBatchClearsPooledOps(t *testing.T) {
	full := []byte(`{"ops":[{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"c":0.5,"q":4,"op":"rangesum","i":9,"lo":3,"hi":7}]}`)
	sparseFast := []byte(`{"ops":[{"op":"estimate"}]}`)
	sparseFallback := []byte(`{"ops":[{"op":"estimate","unknown":1}]}`) // unknown member forces the stdlib path
	for name, sparse := range map[string][]byte{"fast": sparseFast, "fallback": sparseFallback} {
		var req BatchRequest
		if err := DecodeBatch(full, &req); err != nil {
			t.Fatal(err)
		}
		if err := DecodeBatch(sparse, &req); err != nil {
			t.Fatal(err)
		}
		want := Op{Op: OpEstimate}
		if len(req.Ops) != 1 || req.Ops[0] != want {
			t.Fatalf("%s path: pooled reuse leaked fields: got %+v, want %+v", name, req.Ops[0], want)
		}
	}
}

// BenchmarkDecodeBatch decodes a 100-op body over 2 keys and a 1,024-op
// body over 64 (bench/'s serve-batch shape) into a reused request, by the
// fast path and by encoding/json.
func BenchmarkDecodeBatch(b *testing.B) {
	for _, c := range []struct{ ops, keys int }{{100, 2}, {1024, 64}} {
		body := benchBatchBody(b, c.ops, c.keys)
		b.Run(fmt.Sprintf("keys=%d/fast", c.keys), func(b *testing.B) {
			var dst BatchRequest
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := DecodeBatch(body, &dst); err != nil {
					b.Fatal(err)
				}
			}
			if len(dst.Ops) != c.ops {
				b.Fatal("bad decode")
			}
		})
		b.Run(fmt.Sprintf("keys=%d/stdlib", c.keys), func(b *testing.B) {
			var dst BatchRequest
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst.Ops = dst.Ops[:0]
				if err := json.Unmarshal(body, &dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Guard that the canonical wire shape really takes the fast path: if a
// scanner regression silently diverted it to the stdlib, the decode
// would still be correct but ~10x slower and hundreds of allocs worse —
// invisible to every equivalence test above.
func TestDecodeBatchFastPathTaken(t *testing.T) {
	canonical := []byte(`{"ops":[{"dataset":"ds","family":"wavelet","metric":"SSE","budget":8,"op":"estimate","i":3},` +
		`{"dataset":"ds","family":"histogram","metric":"SSE","budget":8,"op":"rangesum","lo":0,"hi":9}]}`)
	var s batchScanner
	var req BatchRequest
	s.data = canonical
	if !s.scanBatch(&req) {
		t.Fatalf("canonical wire shape fell off the fast path")
	}
	if fmt.Sprintf("%+v", req.Ops[1]) != fmt.Sprintf("%+v", Op{
		BatchKey: BatchKey{Dataset: "ds", Family: "histogram", Metric: "SSE", Budget: 8},
		Op:       OpRangeSum, Lo: 0, Hi: 9,
	}) {
		t.Fatalf("fast path mis-parsed: %+v", req.Ops[1])
	}
}
