package textio

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the one dataset parser every tool and
// the server's dataset cache trust. Read must never panic, and whatever
// it accepts must be a dataset the rest of the system can stand on:
// finite expected frequencies (a NaN or Inf admitted here comes out of
// every oracle as a NaN cost and NaN representatives), and a Write → Read
// round trip that hands back the same source.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"# one file per model\nmodel basic\ndomain 3\nt 0 0.5\nt 2 0.25\n",
		"model tuple\ndomain 4\nt 0:0.5 1:0.25\nt 3:1\n",
		"model value\ndomain 4\nv 0 1:0.5 3:0.25\nv 2 2.5:1\n",
		// The four inputs validation used to let through.
		"model value\ndomain 4\nv 0 1:NaN\nv 1 2:0.5\nv 2 3:0.5\nv 3 +Inf:0.5\n",
		"model value\ndomain 4\nv 0 NaN:0.5\n",
		"model basic\ndomain 2\nt 0 NaN\n",
		"model tuple\ndomain 2\nt 0:NaN 1:0.5\n",
		// Directives out of order: a model or domain declared twice, or
		// not at all, used to reach a nil model.
		"model value\ndomain 2\nmodel basic\nt 0 0.5\n",
		"model basic\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A domain is allocated densely, so a twenty-byte input can ask
		// for gigabytes: this fuzzes the parser, not the allocator.
		for _, line := range strings.Split(string(data), "\n") {
			if fs := strings.Fields(line); len(fs) == 2 && fs[0] == "domain" {
				if n, _ := strconv.Atoi(fs[1]); n > 1<<12 {
					t.Skip()
				}
			}
		}
		src, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, e := range src.ExpectedFreqs() {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("accepted a dataset whose item %d has expected frequency %v", i, e)
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, src); err != nil {
			t.Fatalf("Write of an accepted dataset: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Read of what Write wrote: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, src) {
			t.Fatalf("Write → Read changed the dataset:\n got %+v\nwant %+v", back, src)
		}
	})
}
