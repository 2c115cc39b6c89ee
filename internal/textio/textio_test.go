package textio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"probsyn/internal/gen"
	"probsyn/internal/pdata"
	"probsyn/internal/ptest"
)

func roundTrip(t *testing.T, src pdata.Source) pdata.Source {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return got
}

func TestRoundTripBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := ptest.RandomBasic(rng, 10, 15)
	got := roundTrip(t, src)
	if !reflect.DeepEqual(got, src) {
		t.Fatalf("basic roundtrip mismatch:\n got %+v\nwant %+v", got, src)
	}
}

func TestRoundTripTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := ptest.RandomTuplePDF(rng, 10, 8, 3)
	got := roundTrip(t, src)
	if !reflect.DeepEqual(got, src) {
		t.Fatalf("tuple roundtrip mismatch")
	}
}

func TestRoundTripValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := ptest.RandomFractionalValuePDF(rng, 10, 3)
	got := roundTrip(t, src).(*pdata.ValuePDF)
	if got.N != src.N {
		t.Fatalf("domain mismatch")
	}
	for i := range src.Items {
		if !reflect.DeepEqual(got.Items[i].Entries, src.Items[i].Entries) &&
			!(len(got.Items[i].Entries) == 0 && len(src.Items[i].Entries) == 0) {
			t.Fatalf("item %d mismatch: got %+v want %+v", i, got.Items[i], src.Items[i])
		}
	}
}

func TestReadCommentsAndBlanks(t *testing.T) {
	in := `
# a comment
model basic

domain 3
# another
t 0 0.5
t 2 0.25
`
	src, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	b := src.(*pdata.Basic)
	if b.N != 3 || len(b.Tuples) != 2 || b.Tuples[1].Item != 2 {
		t.Fatalf("parsed %+v", b)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"no model":          "domain 5\n",
		"unknown model":     "model nope\n",
		"bad domain":        "model basic\ndomain zero\n",
		"tuple before dom":  "model basic\nt 0 0.5\n",
		"bad basic tuple":   "model basic\ndomain 2\nt x 0.5\n",
		"bad alternative":   "model tuple\ndomain 2\nt 0-0.5\n",
		"empty tuple":       "model tuple\ndomain 2\nt\n",
		"v in basic":        "model basic\ndomain 2\nv 0 1:0.5\n",
		"bad item":          "model value\ndomain 2\nv 9 1:0.5\n",
		"bad entry":         "model value\ndomain 2\nv 0 1;0.5\n",
		"unknown directive": "model basic\ndomain 2\nq 1\n",
		"empty input":       "",
		"invalid data":      "model basic\ndomain 2\nt 0 1.5\n", // prob > 1 fails Validate
		"no domain":         "model basic\n",
		"model twice":       "model value\ndomain 2\nmodel basic\nt 0 0.5\n",
		"domain twice":      "model basic\ndomain 2\ndomain 3\n",
		"domain too large":  "model value\ndomain 99999999999\n",
		"value prob NaN":    "model value\ndomain 4\nv 0 1:NaN\nv 1 2:0.5\n",
		"value freq NaN":    "model value\ndomain 4\nv 0 NaN:0.5\n",
		"value freq +Inf":   "model value\ndomain 4\nv 1 2:0.5\nv 3 +Inf:0.5\n",
		"basic prob NaN":    "model basic\ndomain 2\nt 0 NaN\n",
		"tuple prob NaN":    "model tuple\ndomain 2\nt 0:NaN 1:0.5\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted invalid input", name)
		}
	}
}

// fmtWrite is Write as it was written with fmt: the reference the
// strconv writer must match byte for byte.
func fmtWrite(w io.Writer, src pdata.Source) error {
	bw := bufio.NewWriter(w)
	switch s := src.(type) {
	case *pdata.Basic:
		fmt.Fprintf(bw, "model basic\ndomain %d\n", s.N)
		for _, t := range s.Tuples {
			fmt.Fprintf(bw, "t %d %.17g\n", t.Item, t.Prob)
		}
	case *pdata.TuplePDF:
		fmt.Fprintf(bw, "model tuple\ndomain %d\n", s.N)
		for k := range s.Tuples {
			bw.WriteString("t")
			for _, a := range s.Tuples[k].Alts {
				fmt.Fprintf(bw, " %d:%.17g", a.Item, a.Prob)
			}
			bw.WriteString("\n")
		}
	case *pdata.ValuePDF:
		fmt.Fprintf(bw, "model value\ndomain %d\n", s.N)
		for i := range s.Items {
			if len(s.Items[i].Entries) == 0 {
				continue
			}
			fmt.Fprintf(bw, "v %d", i)
			for _, e := range s.Items[i].Entries {
				fmt.Fprintf(bw, " %.17g:%.17g", e.Freq, e.Prob)
			}
			bw.WriteString("\n")
		}
	default:
		return fmt.Errorf("textio: unknown source type %T", src)
	}
	return bw.Flush()
}

// TestWriteMatchesFmt: Write's bytes are the fmt reference's for the
// three generated datasets and for edge floats in every float position:
// signed zeros, the smallest subnormal and others, the largest finite,
// where %g switches to an exponent, 17-digit values and infinities.
func TestWriteMatchesFmt(t *testing.T) {
	edges := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 1.5e-310,
		math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64, 1e21, 1e20, 123456789012345678,
		0.1, 1.0 / 3, 2.0 / 3, 0.30000000000000004, 9007199254740993, 1e-5, 1e-4, 1e16, 1e17,
		0.12345678901234567, -1.2345678901234567e-100, math.Inf(1), math.Inf(-1), math.NaN()}
	basic := &pdata.Basic{N: 1 << 30}
	tuple := &pdata.TuplePDF{N: 7}
	value := &pdata.ValuePDF{N: len(edges) + 1, Items: make([]pdata.ItemPDF, len(edges)+1)}
	for i, x := range edges {
		basic.Tuples = append(basic.Tuples, pdata.BasicTuple{Item: i * 1e6, Prob: x})
		tuple.Tuples = append(tuple.Tuples, pdata.Tuple{Alts: []pdata.Alternative{{Item: i % 7, Prob: x}, {Item: -i, Prob: -x}}})
		value.Items[i].Entries = []pdata.FreqProb{{Freq: x, Prob: edges[len(edges)-1-i]}, {Freq: -x, Prob: x}}
	}
	sources := map[string]pdata.Source{
		"mystiq":      gen.MystiQLinkage(rand.New(rand.NewSource(1)), gen.DefaultMystiQ(512)),
		"tpch":        gen.TPCHLineitem(rand.New(rand.NewSource(1)), gen.DefaultTPCH(512, 2048)),
		"sensor":      gen.SensorGrid(rand.New(rand.NewSource(1)), gen.DefaultSensor(512)),
		"basic edges": basic, "tuple edges": tuple, "value edges": value,
		"empty tuple": &pdata.TuplePDF{N: 1, Tuples: []pdata.Tuple{{}}},
	}
	for name, src := range sources {
		var got, want bytes.Buffer
		if err := Write(&got, src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := fmtWrite(&want, src); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.String(), want.String()
			for i := 0; i < len(g) && i < len(w); i++ {
				if g[i] != w[i] {
					lo := max(0, i-40)
					t.Fatalf("%s: Write differs from %%.17g at byte %d:\n got %q\nwant %q", name, i, g[lo:min(len(g), i+40)], w[lo:min(len(w), i+40)])
				}
			}
			t.Fatalf("%s: Write wrote %d bytes, %%.17g %d", name, len(g), len(w))
		}
	}
}

// TestWriteAllocations: a dataset write allocates its two buffers and
// nothing per line (a line past 512 bytes would grow the line buffer).
func TestWriteAllocations(t *testing.T) {
	src := gen.SensorGrid(rand.New(rand.NewSource(1)), gen.DefaultSensor(512))
	if n := testing.AllocsPerRun(10, func() {
		if err := Write(io.Discard, src); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("Write allocated %v times, want at most 2", n)
	}
}

func TestWriteSkipsEmptyValueItems(t *testing.T) {
	vp := &pdata.ValuePDF{N: 3, Items: []pdata.ItemPDF{
		{},
		{Entries: []pdata.FreqProb{{Freq: 2, Prob: 0.5}}},
		{},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, vp); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\nv "); got != 1 {
		t.Fatalf("wrote %d item lines, want 1:\n%s", got, buf.String())
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.(*pdata.ValuePDF).Items[1].Entries[0].Freq != 2 {
		t.Fatal("value lost in roundtrip")
	}
}
