package textio

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

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
