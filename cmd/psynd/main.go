// Command psynd is the probsyn synopsis server: a long-lived process
// that loads codec-serialized synopses into an in-memory catalog, accepts
// build requests onto a bounded queue drained through one process-wide
// admission-controlled engine pool, and answers point/range estimates
// over HTTP. Builds are deterministic, so replicas serving the same
// catalog key are byte-interchangeable with each other and with offline
// cmd/psyn builds.
//
// Example:
//
//	psynd -addr 127.0.0.1:7075 -data ./data -catalog ./catalog -max-builds 2
//
//	curl -X POST localhost:7075/v1/build \
//	     -d '{"dataset":"ds","family":"histogram","metric":"SSE","budget":16,"wait":true}'
//	curl -X POST localhost:7075/v1/sweep \
//	     -d '{"dataset":"ds","family":"histogram","metric":"SSE","budget":16,"wait":true}'
//	curl 'localhost:7075/v1/estimate?dataset=ds&family=histogram&metric=SSE&budget=16&i=42'
//	curl 'localhost:7075/v1/rangesum?dataset=ds&family=histogram&metric=SSE&budget=16&lo=0&hi=99'
//	curl 'localhost:7075/v1/synopses'
//
// With -flat, the server boots from the catalog directory's flat file
// (packed by `psyn -pack` or a previous run of this server) and serves
// its first query in milliseconds; the file is invalidated
// before any catalog-changing work and re-packed in the background at
// quiescence, so a crash at any instant leaves a directory that boots
// correctly from the .psyn envelopes alone:
//
//	psyn -pack ./catalog
//	psynd -addr 127.0.0.1:7075 -data ./data -catalog ./catalog -flat
//
// One node serves every dataset. A sharded histogram build ("shards":k
// in the build body, k at most the budget) splits the DP, not the
// serving: the merged synopsis is published under the ordinary key like
// any other build, and the response carries the merge's suboptimality
// bound. A wavelet is never sharded (a sharded wavelet body answers 400):
// past the exact DP's reach, "quantize":q builds it unsharded.
//
//	curl -X POST localhost:7075/v1/build \
//	     -d '{"dataset":"ds","family":"histogram","metric":"SSE","budget":16,"shards":4,"wait":true}'
//
// With -pprof ADDR, net/http/pprof serves on a second listener separate
// from the query surface, so profiling a server under load neither
// exposes the profiler to query clients nor competes with them for the
// serving mux:
//
//	psynd -addr 127.0.0.1:7075 -data ./data -pprof 127.0.0.1:7076
//	go tool pprof http://127.0.0.1:7076/debug/pprof/profile?seconds=10
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, queued
// builds drain, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/server"
)

// Connection limits of both listeners: a client that stalls inside its
// request headers, or parks an idle keep-alive connection, holds a
// goroutine and a descriptor only this long. Package values, not flags:
// no deployment has needed another setting. There is deliberately no
// WriteTimeout, and no ReadTimeout, whose deadline stays armed while the
// handler runs: a wait:true response takes as long as its build, and a
// pprof profile as long as its ?seconds=.
const (
	idleTimeout    = 2 * time.Minute
	maxHeaderBytes = 64 << 10
)

// readHeaderTimeout is a variable for the test that shortens it.
var readHeaderTimeout = 10 * time.Second

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

// errParse marks a flag-parse failure the FlagSet has already reported to
// stderr, so main neither reprints it nor masks the usage text.
var errParse = errors.New("flag parse error")

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, errParse) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "psynd:", err)
		os.Exit(1)
	}
}

// run is the whole server behind a testable seam: it serves until ctx is
// cancelled (the signal handler in main, the test's cancel func), then
// shuts down gracefully. Progress lines go to stdout, including the
// bound listen address, so callers starting on ":0" learn the port.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("psynd", flag.ContinueOnError)
	var (
		flagAddr     = fs.String("addr", "127.0.0.1:7075", "HTTP listen address")
		flagData     = fs.String("data", "", "dataset directory: dataset NAME is NAME.pd in this directory (required)")
		flagCatalog  = fs.String("catalog", "", "catalog directory: preload synopses at startup, persist new builds (optional)")
		flagFlat     = fs.Bool("flat", false, "boot from the catalog directory's flat file (catalog.flat) when present and maintain it across builds (requires -catalog)")
		flagQueue    = fs.Int("queue", server.DefaultQueueDepth, "build queue depth; a full queue rejects builds with queue_full")
		flagMax      = fs.Int("max-builds", 2, "admission cap: builds running DPs concurrently on the shared pool, one build-queue drainer each (<= 0: unlimited, two drainers)")
		flagParallel = fs.Int("parallelism", 0, "engine worker goroutines per build DP (<= 0: one per CPU)")
		flagC        = fs.Float64("c", 0.5, "sanity constant for relative-error metrics")
		flagMaxLive  = fs.Int("max-live", server.DefaultMaxLiveStates, "retained live frontiers (DP state for incremental /v1/append|/v1/update); least-recently-mutated evicted beyond this")
		flagDrain    = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for draining queued builds")
		flagPprof    = fs.String("pprof", "", "serve net/http/pprof on this address (a second listener, kept off the query surface); empty disables")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errParse
	}
	if *flagData == "" {
		fs.Usage()
		return fmt.Errorf("missing -data directory")
	}

	// The process-wide pool: every build this server runs shares these
	// workers, and at most -max-builds DPs dispatch at once.
	pool := engine.New(engine.Options{Workers: *flagParallel, MaxBuilds: *flagMax})
	cat := catalog.New()
	flatPath := ""
	if *flagFlat {
		if *flagCatalog == "" {
			return fmt.Errorf("-flat requires -catalog")
		}
		flatPath = catalog.FlatPath(*flagCatalog)
	}
	if *flagCatalog != "" {
		if err := os.MkdirAll(*flagCatalog, 0o755); err != nil {
			return err
		}
		if *flagFlat {
			warnf := func(format string, args ...any) {
				fmt.Fprintf(stdout, "psynd: "+format+"\n", args...)
			}
			// The Flat handle stays open for the process lifetime: entries
			// are decoded from it on first use, and the keeper's atomic
			// rewrites replace the directory entry without disturbing the
			// open file.
			flat, flatN, codecN, err := catalog.BootDir(cat, *flagCatalog, warnf)
			if err != nil {
				return err
			}
			if flat != nil {
				defer flat.Close()
			}
			fmt.Fprintf(stdout, "psynd: loaded %d synopses from %s (%d flat, %d codec)\n",
				flatN+codecN, *flagCatalog, flatN, codecN)
		} else {
			n, err := cat.LoadDir(*flagCatalog)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "psynd: loaded %d synopses from %s\n", n, *flagCatalog)
		}
	}
	srv, err := server.New(server.Config{
		DataDir:       *flagData,
		CatalogDir:    *flagCatalog,
		FlatPath:      flatPath,
		Catalog:       cat,
		Pool:          pool,
		QueueDepth:    *flagQueue,
		C:             *flagC,
		MaxLiveStates: *flagMaxLive,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, "psynd: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *flagAddr)
	if err != nil {
		return err
	}
	var pprofSrv *http.Server
	if *flagPprof != "" {
		// An explicit mux, not http.DefaultServeMux: importing net/http/pprof
		// registers its handlers globally, and serving the default mux would
		// drag along anything else the process (or a dependency) registered.
		pln, err := net.Listen("tcp", *flagPprof)
		if err != nil {
			return err
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = newHTTPServer(pmux)
		fmt.Fprintf(stdout, "psynd: pprof on %s\n", pln.Addr())
		go func() {
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(stdout, "psynd: pprof server: %v\n", err)
			}
		}()
	}
	httpSrv := newHTTPServer(srv.Handler())
	fmt.Fprintf(stdout, "psynd: listening on %s (pool: %d workers, max %d concurrent builds)\n",
		ln.Addr(), pool.Workers(), pool.MaxBuilds())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "psynd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), *flagDrain)
	defer cancel()
	httpErr := httpSrv.Shutdown(sctx) // close the listener, finish in-flight requests
	if pprofSrv != nil {
		httpErr = errors.Join(httpErr, pprofSrv.Shutdown(sctx))
	}
	drainErr := srv.Shutdown(sctx) // drain queued builds through the pool
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := errors.Join(httpErr, drainErr); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "psynd: bye")
	return nil
}
