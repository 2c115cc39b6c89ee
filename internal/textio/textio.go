// Package textio reads and writes probabilistic datasets in a simple
// line-oriented text format shared by the CLI tools:
//
//	# comments and blank lines are ignored
//	model basic|tuple|value
//	domain <n>
//	t <item> <prob>                  (basic: one line per tuple)
//	t <item>:<prob> <item>:<prob>…   (tuple pdf: one line per tuple)
//	v <item> <freq>:<prob>…          (value pdf: one line per item)
package textio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"probsyn/internal/pdata"
)

// Write serializes a source. Float formatting uses %.17g so a write/read
// round trip is exact.
func Write(w io.Writer, src pdata.Source) error {
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

// maxDomain bounds the domain a file may declare. The value model holds
// its items densely, so the declaration alone sizes an allocation, and an
// absurd one must be an error here, not a makeslice panic; the synopsis
// codec stores item indices in 32 bits and has no use for more.
const maxDomain = 1 << 30

// Read parses a dataset. The returned source is validated.
func Read(r io.Reader) (pdata.Source, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		model  string
		domain = -1
		basic  *pdata.Basic
		tuple  *pdata.TuplePDF
		value  *pdata.ValuePDF
		lineNo int
	)
	fail := func(format string, args ...any) error {
		return fmt.Errorf("textio: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "model":
			if len(fields) != 2 {
				return nil, fail("model line needs one argument")
			}
			if model != "" {
				return nil, fail("model declared twice")
			}
			model = fields[1]
			switch model {
			case "basic", "tuple", "value":
			default:
				return nil, fail("unknown model %q", model)
			}
		case "domain":
			if len(fields) != 2 {
				return nil, fail("domain line needs one argument")
			}
			if domain >= 0 {
				return nil, fail("domain declared twice")
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 || n > maxDomain {
				return nil, fail("bad domain %q (want 1..%d)", fields[1], maxDomain)
			}
			domain = n
			switch model {
			case "basic":
				basic = &pdata.Basic{N: n}
			case "tuple":
				tuple = &pdata.TuplePDF{N: n}
			case "value":
				value = &pdata.ValuePDF{N: n, Items: make([]pdata.ItemPDF, n)}
			default:
				return nil, fail("domain before model")
			}
		case "t":
			if domain < 0 {
				return nil, fail("tuple before domain")
			}
			switch model {
			case "basic":
				if len(fields) != 3 {
					return nil, fail("basic tuple needs item and probability")
				}
				item, err1 := strconv.Atoi(fields[1])
				prob, err2 := strconv.ParseFloat(fields[2], 64)
				if err1 != nil || err2 != nil {
					return nil, fail("bad basic tuple %q", line)
				}
				basic.Tuples = append(basic.Tuples, pdata.BasicTuple{Item: item, Prob: prob})
			case "tuple":
				t := pdata.Tuple{}
				for _, f := range fields[1:] {
					item, prob, err := parsePair(f)
					if err != nil {
						return nil, fail("bad alternative %q: %v", f, err)
					}
					t.Alts = append(t.Alts, pdata.Alternative{Item: int(item), Prob: prob})
				}
				if len(t.Alts) == 0 {
					return nil, fail("tuple with no alternatives")
				}
				tuple.Tuples = append(tuple.Tuples, t)
			default:
				return nil, fail("'t' line in %q model", model)
			}
		case "v":
			if model != "value" {
				return nil, fail("'v' line in %q model", model)
			}
			if domain < 0 {
				return nil, fail("item before domain")
			}
			if len(fields) < 2 {
				return nil, fail("value line needs an item")
			}
			item, err := strconv.Atoi(fields[1])
			if err != nil || item < 0 || item >= domain {
				return nil, fail("bad item %q", fields[1])
			}
			var ip pdata.ItemPDF
			for _, f := range fields[2:] {
				freq, prob, err := parsePair(f)
				if err != nil {
					return nil, fail("bad entry %q: %v", f, err)
				}
				ip.Entries = append(ip.Entries, pdata.FreqProb{Freq: freq, Prob: prob})
			}
			value.Items[item] = ip
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("textio: %w", err)
	}
	if model != "" && domain < 0 {
		return nil, fmt.Errorf("textio: no domain declared")
	}
	var src pdata.Source
	var err error
	switch model {
	case "basic":
		src, err = basic, basic.Validate()
	case "tuple":
		src, err = tuple, tuple.Validate()
	case "value":
		src, err = value, value.Validate()
	case "":
		return nil, fmt.Errorf("textio: no model declared")
	}
	if err != nil {
		return nil, err
	}
	return src, nil
}

// parsePair parses "a:b" into two floats.
func parsePair(s string) (float64, float64, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, 0, fmt.Errorf("missing ':'")
	}
	a, err := strconv.ParseFloat(s[:colon], 64)
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.ParseFloat(s[colon+1:], 64)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
