// Command datagen writes generated probabilistic datasets in the probsyn
// text format: the MystiQ-linkage-shaped basic model, the TPC-H-shaped
// tuple pdf model, and a sensor-grid value pdf model (see DESIGN.md for how
// these stand in for the paper's datasets).
//
// Examples:
//
//	datagen -kind mystiq -n 10000 -out movie.pd
//	datagen -kind tpch -n 4096 -m 16384 -spread 8 -out lineitem.pd
//	datagen -kind sensor -n 1024 -out sensors.pd
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"probsyn"
	"probsyn/internal/gen"
)

var (
	flagKind   = flag.String("kind", "mystiq", "dataset kind: mystiq, tpch, sensor")
	flagN      = flag.Int("n", 4096, "domain size")
	flagM      = flag.Int("m", 0, "tuples (tpch only; default 4n)")
	flagSpread = flag.Int("spread", 0, "tpch alternative-window spread (0 = unbounded)")
	flagSeed   = flag.Int64("seed", 1, "random seed")
	flagOut    = flag.String("out", "", "output file (default stdout)")
)

func main() {
	flag.Parse()
	if *flagN < 1 {
		fmt.Fprintf(os.Stderr, "datagen: -n %d: the domain needs at least one item\n", *flagN)
		os.Exit(2)
	}
	rng := rand.New(rand.NewSource(*flagSeed))

	var src probsyn.Source
	switch *flagKind {
	case "mystiq":
		src = gen.MystiQLinkage(rng, gen.DefaultMystiQ(*flagN))
	case "tpch":
		m := *flagM
		if m <= 0 {
			m = 4 * *flagN
		}
		cfg := gen.DefaultTPCH(*flagN, m)
		cfg.Spread = *flagSpread
		src = gen.TPCHLineitem(rng, cfg)
	case "sensor":
		src = gen.SensorGrid(rng, gen.DefaultSensor(*flagN))
	default:
		fmt.Fprintf(os.Stderr, "datagen: unknown kind %q\n", *flagKind)
		os.Exit(2)
	}

	out := os.Stdout
	if *flagOut != "" {
		f, err := os.Create(*flagOut)
		fatal(err)
		defer f.Close()
		out = f
	}
	fatal(probsyn.WriteDataset(out, src))
	fmt.Fprintf(os.Stderr, "datagen: wrote %s dataset, n=%d, m=%d pairs\n", *flagKind, src.Domain(), src.M())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}
