// Package server is the probsyn serving layer: an HTTP surface over the
// synopsis catalog and the shared build pool. The paper's economics —
// one expensive DP build amortized over many cheap point/range estimates
// — is exactly a long-lived process, so the server keeps every built
// synopsis in an in-memory catalog (read-mostly, answering estimates
// under a read lock) and accepts build requests onto a bounded FIFO
// queue drained by one worker per build token. The workers all build
// through one process-wide engine.Pool whose MaxBuilds admission cap
// bounds how many DPs run at once, however many requests arrive;
// everything else waits in the queue. Builds are deterministic, so two
// replicas serving the same catalog key answer byte-identically.
//
// Endpoints (all JSON):
//
//	POST /v1/build     {dataset, family, metric, budget, wait?} — enqueue
//	                   a build; with wait=true the response reports the
//	                   completed build (or its error).
//	POST /v1/sweep     same body — enqueue a budget sweep: one DP run
//	                   under one admission token builds and catalogs the
//	                   synopsis for every budget 1..budget, each
//	                   byte-identical to a single build of that budget.
//	POST /v1/append    {dataset, items, wait?} — enqueue a dataset
//	                   mutation: the items extend the (value-pdf)
//	                   dataset, and every cataloged budget of every key
//	                   of that dataset is revalidated incrementally from
//	                   retained live DP state and atomically republished
//	                   (dataset persisted first, then each budget
//	                   persist-before-publish).
//	POST /v1/update    {dataset, i, item, wait?} — same, replacing item
//	                   i's frequency pdf in place.
//	GET  /v1/estimate  ?dataset=&family=&metric=&budget=&i=     — point
//	                   estimate from the catalog.
//	GET  /v1/rangesum  ?dataset=&family=&metric=&budget=&lo=&hi= — range
//	                   estimate from the catalog. Both take the optional
//	                   key syntax &c= &q=.
//	POST /v1/query     {ops: [{dataset, family, metric, budget, c?, op,
//	                   i?, lo?, hi?}, ...]} — a batch of heterogeneous
//	                   estimate/rangesum operations against one or many
//	                   keys, answered in request order with per-op
//	                   errors; one round trip amortizes parsing and key
//	                   resolution across the whole batch.
//	GET  /v1/synopses  — list catalog entries.
//
// Sharded builds: a histogram build request with shards >= 2 partitions
// the domain, builds the shards within the pool's workers on one admission
// token (probsyn.BuildSharded), and publishes the merged synopsis under the
// ordinary key — nothing downstream of the build can tell how a synopsis
// was built. Sharding is a property of the build, not of serving: one
// node holds every dataset (DESIGN.md, "Why one node").
//
// Every read — the single GET endpoints and batches alike — is parse,
// resolve, evaluate (read.go): the key resolves through catalog.Resolve
// to a compiled querier (internal/query), built once at publish time,
// O(log) time and zero allocation per operation, bit-identical to the
// synopsis's own methods.
//
// Every write — a build, each budget of a sweep, a sharded build's merged
// synopsis, every key a mutation republishes, the mutated dataset itself
// — goes through internal/catalog's write path (Publish,
// ExtractAndPublish, Mutation.Republish), the functions cmd/psyn writes a
// catalog directory with, so a served file and an offline one are the
// same bytes by construction. What this package adds is policy: the
// queues and their dedupe, the per-dataset locks, which live frontiers
// stay retained (liveFor), the flat keeper, and withdrawing what a failed
// mutation could not republish.
//
// Mutations are serialized per dataset (builds of a dataset share a read
// lock, mutations take the write lock), so a build admitted before an
// append can never overwrite the republished catalog with a stale
// synopsis, and two mutations cannot interleave their live-state
// updates. Within one mutation, the live frontiers of the dataset's key
// groups absorb it concurrently, bounded by the pool's MaxBuilds.
//
// Errors are typed: {"error": {"code", "message"}} with codes
// bad_request, not_found, queue_full, build_failed, shutting_down,
// internal.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"probsyn"
	"probsyn/internal/catalog"
	"probsyn/internal/engine"
	"probsyn/internal/pdata"
	"probsyn/internal/query"
)

// Config assembles a Server. Catalog and Pool are shared, process-wide
// state: psynd creates one of each and hands them to the server, the
// offline tools read and write the same catalog files.
type Config struct {
	// DataDir holds the buildable datasets: dataset name "x" resolves to
	// DataDir/x.pd in the probsyn text format.
	DataDir string
	// CatalogDir, when non-empty, is where newly built synopses are
	// persisted (and typically where the catalog was preloaded from).
	CatalogDir string
	// Catalog is the in-memory synopsis registry estimates answer from.
	Catalog *catalog.Catalog
	// Pool is the process-wide build pool; its MaxBuilds cap is the
	// admission control on concurrent build DPs, and the number of
	// goroutines draining the build queue (2 on an uncapped pool): a
	// drainer beyond the cap would only wait for a build token.
	Pool *engine.Pool
	// QueueDepth bounds the build FIFO; <= 0 means DefaultQueueDepth.
	// A full queue rejects new builds with queue_full instead of letting
	// requests pile up unboundedly.
	QueueDepth int
	// C is the sanity constant handed to relative-error metric builds.
	C float64
	// FlatPath, when non-empty, is the flat catalog file this
	// server maintains (conventionally catalog.FlatPath(CatalogDir)):
	// removed before any job that changes the catalog, re-packed in the
	// background once the server is quiescent, and packed once more on
	// graceful shutdown — so a replica boot always finds either a flat
	// file exactly matching the .psyn directory or no flat file at all.
	FlatPath string
	// MaxLiveStates caps how many live frontiers (retained DP state for
	// incremental mutation maintenance) the server keeps; <= 0 means
	// DefaultMaxLiveStates. Beyond the cap the least-recently-mutated
	// frontier is dropped — a later mutation of its dataset rebuilds it
	// from the persisted source, trading one build for bounded memory.
	MaxLiveStates int
	// Logf, when non-nil, receives operational log lines (failed builds
	// especially — an async wait:false build has no response to carry
	// its error, so the log is where it surfaces). Nil means the
	// standard library logger.
	Logf func(format string, args ...any)
}

// Queue and live-state defaults for the zero Config.
const (
	DefaultQueueDepth    = 64
	DefaultMaxLiveStates = 32
)

// Server owns the build queue and the HTTP handlers.
type Server struct {
	cfg   Config
	queue chan *buildJob

	// mutQueue carries dataset mutations, drained by exactly ONE
	// goroutine: appends are order-sensitive ("item Domain() gets
	// items[0]"), and a shared multi-worker queue would let two workers
	// race on the per-dataset write lock and apply queued mutations out
	// of POST order. One drainer preserves FIFO; builds keep their own
	// multi-worker queue.
	mutQueue chan *buildJob

	// closing gates enqueues: Shutdown takes the write lock to set
	// closed and close the queue, enqueues hold the read lock — so no
	// send can race the close.
	closingMu sync.RWMutex
	closed    bool
	workers   sync.WaitGroup

	// flat maintains the flat catalog file (nil when Config.
	// FlatPath is empty): invalidation before catalog-changing jobs,
	// background re-pack at quiescence, final pack at shutdown.
	flat *flatKeeper

	// read-mostly cache of parsed datasets.
	dsMu     sync.RWMutex
	datasets map[string]probsyn.Source

	// pending dedupes builds: one job per key from enqueue until its
	// build finishes, so re-POSTing an uncataloged key (a wait:false
	// client polling for completion) attaches to the in-flight job
	// instead of multiplying expensive duplicate DPs. Sweeps dedupe
	// separately from single builds of the same key — a plain build in
	// flight does not produce the sweep's lower budgets. Mutations are
	// never deduped (each one is distinct work) but coalesce with
	// in-flight builds through the catalog: a queued build whose key a
	// mutation already republished finds the entry and skips its DP.
	pendingMu sync.Mutex
	pending   map[jobKey]*buildJob

	// Per-dataset coherence locks: builds hold the read side, mutations
	// the write side, so a stale pre-mutation build can never land after
	// a mutation's republish.
	dlMu    sync.Mutex
	dsLocks map[string]*sync.RWMutex

	// lives retains the maintainable frontiers mutations revalidate
	// incrementally, one per frontier group — keyed by the group's catalog
	// key with Budget zeroed, so exact and quantized frontiers never serve
	// each other's keys — bounded at cfg.MaxLiveStates with
	// least-recently-mutated eviction. breq is the budget the live state
	// was requested at: a catalog that has since gained higher budgets
	// forces a rebuild at the larger request.
	livesMu   sync.Mutex
	lives     map[catalog.Key]*liveState
	liveClock int64
}

// jobKey identifies a deduplicatable unit of build work. shards > 1
// dedupes sharded builds separately from plain builds of the same key:
// a k-way merge is a different synopsis with its own bound, and the
// request that waits on the job reports that bound.
type jobKey struct {
	catalog.Key
	sweep  bool
	shards int
}

// liveState is a retained live frontier plus the budget it was requested
// at (Bmax() may be smaller — domain clamping) and its LRU stamp.
type liveState struct {
	m     probsyn.Maintainer
	breq  int
	stamp int64
}

// jobKind discriminates queued work.
type jobKind int

const (
	jobBuild jobKind = iota
	jobSweep
	jobMutate
)

// buildJob is one queued build, budget sweep, or dataset mutation; err
// (and the mutation results) are valid once done is closed.
type buildJob struct {
	kind   jobKind
	key    catalog.Key // build/sweep
	shards int         // > 1 selects the sharded build path
	mut    *mutation   // mutate
	done   chan struct{}
	err    error

	// results reported on wait:true responses: a sharded build's
	// suboptimality bound, a mutation's new domain and republish count.
	bound       float64
	domain      int
	republished int
}

// mutation is one parsed dataset mutation, addressed to its dataset.
type mutation struct {
	dataset string
	catalog.Mutation
}

// New validates the config and returns a server with its queue workers
// running.
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("server: nil catalog")
	}
	if cfg.Pool == nil {
		return nil, fmt.Errorf("server: nil pool")
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: no data directory")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxLiveStates <= 0 {
		cfg.MaxLiveStates = DefaultMaxLiveStates
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *buildJob, cfg.QueueDepth),
		mutQueue: make(chan *buildJob, cfg.QueueDepth),
		datasets: make(map[string]probsyn.Source),
		pending:  make(map[jobKey]*buildJob),
		dsLocks:  make(map[string]*sync.RWMutex),
		lives:    make(map[catalog.Key]*liveState),
	}
	if cfg.FlatPath != "" {
		s.flat = newFlatKeeper(cfg.FlatPath, cfg.Catalog, s.logf)
	}
	drainers := cfg.Pool.MaxBuilds()
	if drainers == 0 {
		drainers = 2
	}
	for w := 0; w < drainers; w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for job := range s.queue {
				s.runJob(job)
			}
		}()
	}
	// The single mutation drainer (see the mutQueue field comment).
	s.workers.Add(1)
	go func() {
		defer s.workers.Done()
		for job := range s.mutQueue {
			s.runJob(job)
		}
	}()
	return s, nil
}

// runJob executes one queued job and completes it. Every job may change
// the catalog (persist, publish, withdraw), so the flat catalog file is
// invalidated before the job runs and re-packed once the server
// quiesces after it.
func (s *Server) runJob(job *buildJob) {
	if s.flat != nil {
		s.flat.JobStart()
		defer s.flat.JobEnd()
	}
	if job.kind == jobMutate {
		job.domain, job.republished, job.err = s.mutate(job.mut)
	} else {
		job.bound, job.err = s.build(job.key, job.kind == jobSweep, job.shards)
	}
	if job.err != nil {
		// Surface every failure here: an async (wait:false) client has
		// no response carrying the error.
		if job.kind == jobMutate {
			s.logf("mutation of %s failed: %v", job.mut.dataset, job.err)
		} else {
			s.logf("build %s failed: %v", job.key, job.err)
		}
	}
	// Unregister before completing: a request arriving after the delete
	// sees the catalog entry (success) or starts a fresh job (failure);
	// one arriving before it waits on done and reads err. (Mutations are
	// never registered.)
	if job.kind != jobMutate {
		s.pendingMu.Lock()
		delete(s.pending, jobKey{job.key, job.kind == jobSweep, job.shards})
		s.pendingMu.Unlock()
	}
	close(job.done)
}

// datasetLock returns the dataset's coherence lock, creating it on first
// use. Builds hold the read side for their whole build-persist-publish
// span; a mutation holds the write side across its whole
// catalog.Mutation.Republish — the dataset persist and the live
// revalidation of every frontier group, which run concurrently, then the
// republish — so its groups' liveFor calls run alongside each other, but
// never alongside another mutation or a build of the dataset.
func (s *Server) datasetLock(name string) *sync.RWMutex {
	s.dlMu.Lock()
	defer s.dlMu.Unlock()
	l, ok := s.dsLocks[name]
	if !ok {
		l = &sync.RWMutex{}
		s.dsLocks[name] = l
	}
	return l
}

// Shutdown stops admitting new builds, lets the workers drain every job
// already queued, and returns when they have finished (or ctx expires).
// Estimate reads keep working throughout — only build ingest closes.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closingMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
		close(s.mutQueue)
	}
	s.closingMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Every queued job has drained: pack the flat catalog one final
		// time so the next boot opens it instead of walking the directory.
		if s.flat != nil {
			s.flat.Close()
		}
		return nil
	case <-ctx.Done():
		// Jobs may still be running; a final pack here could race them.
		// The flat file was already invalidated by any active job, so
		// the next boot correctly falls back to the .psyn directory.
		return fmt.Errorf("server: shutdown: %w", ctx.Err())
	}
}

// Handler returns the server's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/build", s.handleBuild)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/append", s.handleAppend)
	mux.HandleFunc("POST /v1/update", s.handleUpdate)
	mux.HandleFunc("GET /v1/estimate", s.handleRead(query.OpEstimate))
	mux.HandleFunc("GET /v1/rangesum", s.handleRead(query.OpRangeSum))
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/synopses", s.handleSynopses)
	return mux
}

// ---- wire types ----

// BuildRequest is the POST /v1/build body.
type BuildRequest struct {
	Dataset string `json:"dataset"`
	Family  string `json:"family"`
	Metric  string `json:"metric"`
	Budget  int    `json:"budget"`
	// C is the sanity constant for relative-error metrics; 0 means the
	// server's -c default. Ignored (zeroed in the key) for metrics that
	// do not use it.
	C float64 `json:"c,omitempty"`
	// Quantize > 0 requests the approximate restricted wavelet DP on
	// grids of that many points (>= 2): domains far beyond the exact
	// DP's reach build in seconds, at a bounded additive cost penalty.
	// The grid size is part of the catalog key, so exact and quantized
	// synopses of the same dataset/metric/budget coexist.
	Quantize int `json:"quantize,omitempty"`
	// Shards >= 2 requests a sharded histogram build: the domain splits
	// into that many contiguous ranges built in parallel over the pool
	// and merged (probsyn.BuildSharded); the merged synopsis publishes
	// under the ordinary key. 0 or 1 is an ordinary unsharded build. A
	// wavelet, or a budget below the shard count, with Shards >= 2 is a
	// bad request.
	Shards int `json:"shards,omitempty"`
	// Wait makes the request synchronous: the response arrives after the
	// queued build completes (or fails).
	Wait bool `json:"wait,omitempty"`
}

// BuildResponse reports where the requested synopsis — or, for sweeps,
// the requested budget frontier — stands.
type BuildResponse struct {
	Key    catalog.Key `json:"key"`
	Status string      `json:"status"` // "ready", "queued", or "built"
	// Budgets is how many per-budget synopses the request covers: 0 for
	// single builds, the swept budget count (1..key.budget) for sweeps.
	Budgets int `json:"budgets,omitempty"`
	// Bound, on the "built" response of a sharded build, certifies the
	// merged synopsis's cost within Bound of the unsharded optimum
	// (probsyn.ShardedResult.Bound; 0, omitted, when it is exact).
	Bound float64 `json:"bound,omitempty"`
}

// FreqProbWire is one (frequency, probability) entry of a mutation's
// item pdf, as JSON.
type FreqProbWire struct {
	Freq float64 `json:"freq"`
	Prob float64 `json:"prob"`
}

// ItemPDFWire is one item's frequency pdf, as JSON. An empty entry list
// means the item's frequency is surely zero.
type ItemPDFWire struct {
	Entries []FreqProbWire `json:"entries"`
}

func (w ItemPDFWire) toPDF() pdata.ItemPDF {
	entries := make([]pdata.FreqProb, len(w.Entries))
	for k, e := range w.Entries {
		entries[k] = pdata.FreqProb{Freq: e.Freq, Prob: e.Prob}
	}
	return pdata.ItemPDF{Entries: entries}
}

// MutateRequest is the POST /v1/append and /v1/update body. Append uses
// Items (the pdfs extending the domain in order); update uses I and
// Item. Mutations are defined over the value-pdf model: the dataset file
// must be a value-model dataset.
type MutateRequest struct {
	Dataset string        `json:"dataset"`
	Items   []ItemPDFWire `json:"items,omitempty"` // append
	I       int           `json:"i,omitempty"`     // update
	Item    *ItemPDFWire  `json:"item,omitempty"`  // update
	// Wait makes the request synchronous: the response arrives after the
	// dataset is persisted and every cataloged budget republished.
	Wait bool `json:"wait,omitempty"`
}

// MutateResponse reports where a mutation stands. Domain and Republished
// are meaningful on wait:true responses ("applied").
type MutateResponse struct {
	Dataset     string `json:"dataset"`
	Status      string `json:"status"` // "queued" or "applied"
	Domain      int    `json:"domain,omitempty"`
	Republished int    `json:"republished,omitempty"`
}

// EstimateResponse answers /v1/estimate.
type EstimateResponse struct {
	Key      catalog.Key `json:"key"`
	I        int         `json:"i"`
	Estimate float64     `json:"estimate"`
}

// RangeSumResponse answers /v1/rangesum.
type RangeSumResponse struct {
	Key catalog.Key `json:"key"`
	Lo  int         `json:"lo"`
	Hi  int         `json:"hi"`
	Sum float64     `json:"sum"`
}

// SynopsisInfo is one /v1/synopses listing row.
type SynopsisInfo struct {
	Key       catalog.Key `json:"key"`
	Domain    int         `json:"domain"`
	Terms     int         `json:"terms"`
	ErrorCost float64     `json:"error_cost"`
	Bytes     int         `json:"bytes"`
}

// ListResponse answers /v1/synopses.
type ListResponse struct {
	Synopses []SynopsisInfo `json:"synopses"`
}

// ErrorBody is the typed error envelope every non-2xx response carries.
type ErrorBody struct {
	Error APIError `json:"error"`
}

// APIError is a machine-readable error: a stable code plus a message.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// The error codes.
const (
	CodeBadRequest   = "bad_request"
	CodeNotFound     = "not_found"
	CodeQueueFull    = "queue_full"
	CodeBuildFailed  = "build_failed"
	CodeShuttingDown = "shutting_down"
	// CodeInternal is a read whose answer cannot be written: a sum over
	// the synopsis that is not a finite number. The only 500 a read gives.
	CodeInternal = "internal"
)

// ---- handlers ----

// maxBuildBody bounds the POST /v1/build body: a valid request is a few
// hundred bytes, so anything larger is hostile or broken and must not
// buffer into memory.
const maxBuildBody = 1 << 16

// maxSweepBudget bounds POST /v1/sweep: a sweep registers one catalog
// entry (and one file) per budget, so unlike a single build its cost
// scales with the budget field itself. 8192 comfortably covers the
// paper's largest frontier (5000 coefficients, Figure 4a at full scale)
// while keeping the worst-case request to thousands of entries, not
// billions.
const maxSweepBudget = 1 << 13

func (s *Server) handleBuild(w http.ResponseWriter, r *http.Request) {
	s.handleBuildLike(w, r, false)
}

// handleSweep enqueues a budget sweep: one frontier build that catalogs
// the synopsis for every budget 1..budget of the requested key, each
// byte-identical to a single /v1/build of that budget.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.handleBuildLike(w, r, true)
}

func (s *Server) handleBuildLike(w http.ResponseWriter, r *http.Request, sweep bool) {
	var req BuildRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBuildBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad build request body: %v", err)
		return
	}
	c := req.C
	if c == 0 {
		c = s.cfg.C // the server's default sanity constant
	}
	key, err := catalog.NewKeyQ(req.Dataset, req.Family, req.Metric, req.Budget, c, req.Quantize)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if err := validDatasetName(key.Dataset); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	shards := req.Shards
	if shards < 0 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "negative shard count %d", shards)
		return
	}
	if shards == 1 {
		shards = 0 // one shard IS the unsharded build
	}
	if sweep && shards > 1 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "sweeps cannot be sharded")
		return
	}
	if key.Family == catalog.FamilyWavelet && shards > 1 {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "a wavelet is not sharded: build it unsharded, with quantize past the exact DP's reach")
		return
	}
	if shards > key.Budget {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%d shards need budget >= %d (one bucket per shard), got %d", shards, shards, key.Budget)
		return
	}
	budgets := 0
	if sweep {
		if key.Budget > maxSweepBudget {
			writeError(w, http.StatusBadRequest, CodeBadRequest,
				"sweep budget %d exceeds the per-request limit %d", key.Budget, maxSweepBudget)
			return
		}
		budgets = key.Budget
	}
	// A sharded build never short-circuits on the cataloged key: the entry
	// may be the unsharded optimum or another k's merge, and the caller
	// asked for this one and its bound.
	if shards <= 1 && s.ready(published(key, sweep)) {
		writeJSON(w, http.StatusOK, BuildResponse{Key: key, Status: "ready", Budgets: budgets})
		return
	}
	if _, err := os.Stat(s.datasetPath(key.Dataset)); err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "dataset %q not found", key.Dataset)
		return
	}
	// Claim the key: if a job for it is already queued or building,
	// attach to that one instead of enqueueing a duplicate DP. The
	// enqueue happens under pendingMu, and the job is published only
	// once it is actually queued — so a job found in pending is always
	// one a worker will complete, and a failed enqueue is visible to
	// nobody.
	jk := jobKey{key, sweep, shards}
	kind := jobBuild
	if sweep {
		kind = jobSweep
	}
	s.pendingMu.Lock()
	job, inflight := s.pending[jk]
	if !inflight {
		job = &buildJob{kind: kind, key: key, shards: shards, done: make(chan struct{})}
		if code, err := s.enqueue(job); err != nil {
			s.pendingMu.Unlock()
			writeError(w, http.StatusServiceUnavailable, code, "%v", err)
			return
		}
		s.pending[jk] = job
	}
	s.pendingMu.Unlock()
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, BuildResponse{Key: key, Status: "queued", Budgets: budgets})
		return
	}
	select {
	case <-job.done:
	case <-r.Context().Done():
		// The client went away; the queued build still completes and
		// lands in the catalog for the next request.
		return
	}
	if job.err != nil {
		writeError(w, http.StatusInternalServerError, CodeBuildFailed, "%v", job.err)
		return
	}
	writeJSON(w, http.StatusOK, BuildResponse{Key: key, Status: "built", Budgets: budgets, Bound: job.bound})
}

// ready reports whether the catalog already holds every key a job would
// publish.
func (s *Server) ready(keys []catalog.Key) bool {
	for _, k := range keys {
		if _, ok := s.cfg.Catalog.Get(k); !ok {
			return false
		}
	}
	return true
}

// enqueue appends the job to its bounded FIFO (builds and mutations
// queue separately; mutations drain on one goroutine to preserve POST
// order), reporting queue_full when the queue is at depth and
// shutting_down once Shutdown has begun.
func (s *Server) enqueue(job *buildJob) (code string, err error) {
	s.closingMu.RLock()
	defer s.closingMu.RUnlock()
	if s.closed {
		return CodeShuttingDown, fmt.Errorf("server is shutting down")
	}
	q, name := s.queue, "build"
	if job.kind == jobMutate {
		q, name = s.mutQueue, "mutation"
	}
	select {
	case q <- job:
		return "", nil
	default:
		return CodeQueueFull, fmt.Errorf("%s queue full (%d pending)", name, cap(q))
	}
}

// maxMutateBody bounds mutation bodies: append batches carry item pdfs,
// so they are larger than build requests but still nowhere near this.
const maxMutateBody = 1 << 22

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	s.handleMutate(w, r, false)
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.handleMutate(w, r, true)
}

// handleMutate validates and enqueues a dataset mutation. Validation
// that needs no dataset state (pdf sanity, name shape) happens here so
// bad requests fail fast with 400; the domain bound is re-checked at
// apply time, when mutations queued ahead of this one have landed.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, update bool) {
	var req MutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutateBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad mutation request body: %v", err)
		return
	}
	if req.Dataset == "" {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "empty dataset name")
		return
	}
	if err := validDatasetName(req.Dataset); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if _, err := os.Stat(s.datasetPath(req.Dataset)); err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, "dataset %q not found", req.Dataset)
		return
	}
	src, err := s.dataset(req.Dataset)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if _, ok := src.(*pdata.ValuePDF); !ok {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			"mutations are defined over the value-pdf model; dataset %q uses another model", req.Dataset)
		return
	}
	mut := &mutation{dataset: req.Dataset}
	if update {
		if req.Item == nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "update needs an item pdf")
			return
		}
		it := req.Item.toPDF()
		if err := it.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
			return
		}
		if req.I < 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "negative item index %d", req.I)
			return
		}
		mut.I, mut.Update = req.I, &it
	} else {
		if len(req.Items) == 0 {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "append needs at least one item pdf")
			return
		}
		mut.Items = make([]pdata.ItemPDF, len(req.Items))
		for k, iw := range req.Items {
			mut.Items[k] = iw.toPDF()
			if err := mut.Items[k].Validate(); err != nil {
				writeError(w, http.StatusBadRequest, CodeBadRequest, "item %d: %v", k, err)
				return
			}
		}
	}
	job := &buildJob{kind: jobMutate, mut: mut, done: make(chan struct{})}
	if code, err := s.enqueue(job); err != nil {
		writeError(w, http.StatusServiceUnavailable, code, "%v", err)
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, MutateResponse{Dataset: req.Dataset, Status: "queued"})
		return
	}
	select {
	case <-job.done:
	case <-r.Context().Done():
		return // the queued mutation still applies and republishes
	}
	if job.err != nil {
		writeError(w, http.StatusInternalServerError, CodeBuildFailed, "%v", job.err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Dataset: req.Dataset, Status: "applied",
		Domain: job.domain, Republished: job.republished,
	})
}

// maxQueryBody bounds the POST /v1/query body: MaxBatchOps small ops fit
// comfortably in 1 MiB, and anything larger should be split into several
// batches rather than buffered whole.
const maxQueryBody = 1 << 20

// queryScratch is the pooled per-request state of the batch endpoint:
// the decoded request, the response with its retained results slice, and
// the buffer the response is serialized into. Pooling keeps the handler's
// steady-state allocation per batch near zero — the querier calls
// themselves allocate nothing.
type queryScratch struct {
	req  query.BatchRequest
	resp query.BatchResponse
	buf  bytes.Buffer
}

var queryPool = sync.Pool{New: func() any { return new(queryScratch) }}

// handleQuery answers a batch of estimate/rangesum operations in one
// round trip. Operations fail individually (per-op errors with the same
// stable codes as the single endpoints); only a malformed or oversized
// body fails the request. The response bytes are query.EncodeResponse's
// canonical serialization — byte-identical to psyn -query over the same
// catalog.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	sc := queryPool.Get().(*queryScratch)
	defer queryPool.Put(sc)
	sc.resp.Results = sc.resp.Results[:0]
	sc.buf.Reset()
	if _, err := sc.buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxQueryBody)); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad query body: %v", err)
		return
	}
	// query.DecodeBatch, not encoding/json: the fast scanner decodes a
	// canonical batch an order of magnitude cheaper than reflection, and
	// it zeroes the pooled ops so nothing leaks between requests.
	if err := query.DecodeBatch(sc.buf.Bytes(), &sc.req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "bad query body: %v", err)
		return
	}
	if err := sc.req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	query.EvalBatch(&sc.req, catalog.Resolver(s.cfg.C, s.querier), &sc.resp)
	sc.buf.Reset()
	if err := query.EncodeResponse(&sc.buf, &sc.resp); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "encode the results: %v", err)
		return
	}
	setJSON(w)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.buf.Bytes())
}

func (s *Server) handleSynopses(w http.ResponseWriter, r *http.Request) {
	entries := s.cfg.Catalog.List()
	resp := ListResponse{Synopses: make([]SynopsisInfo, 0, len(entries))}
	for _, e := range entries {
		resp.Synopses = append(resp.Synopses, SynopsisInfo{
			Key: e.Key, Domain: e.Synopsis.Domain(), Terms: e.Synopsis.Terms(),
			ErrorCost: e.Synopsis.ErrorCost(), Bytes: e.Bytes,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- the write path ----

// published lists the keys a build job writes: the key itself, or for a
// sweep every budget 1..key.Budget of it.
func published(key catalog.Key, sweep bool) []catalog.Key {
	if sweep {
		return key.Sweep()
	}
	return []catalog.Key{key}
}

// build runs one build job on the shared pool and publishes what it
// built (catalog.Publish: persisted, then cataloged). A plain build and a
// sweep are the same loop — one probsyn.BuildSweep, one DP run under one
// admission token, then catalog.ExtractAndPublish over the job's keys —
// so every swept budget is byte for byte what a single build of it
// publishes, and what an offline cmd/psyn build writes. shards > 1 runs
// probsyn.BuildSharded instead (one admission token, like any build): the
// merged synopsis publishes under the ordinary key and its suboptimality
// bound is returned.
func (s *Server) build(key catalog.Key, sweep bool, shards int) (bound float64, err error) {
	lock := s.datasetLock(key.Dataset)
	lock.RLock()
	defer lock.RUnlock()
	keys := published(key, sweep)
	if shards <= 1 && s.ready(keys) {
		return 0, nil // built (or loaded, or republished by a mutation) since this job was queued
	}
	src, err := s.dataset(key.Dataset)
	if err != nil {
		return 0, err
	}
	m, opts, err := s.buildOptions(key)
	if err != nil {
		return 0, err
	}
	if shards <= 1 {
		_, err := catalog.ExtractAndPublish(s.cfg.CatalogDir, s.cfg.Catalog, keys,
			func(top catalog.Key) (probsyn.Frontier, error) {
				fr, err := probsyn.BuildSweep(src, m, top.Budget, opts...)
				if err != nil {
					return nil, fmt.Errorf("build %s: %w", top, err)
				}
				return fr, nil
			})
		return 0, err
	}
	res, err := probsyn.BuildSharded(src, m, key.Budget, shards, opts...)
	if err != nil {
		return 0, fmt.Errorf("sharded build %s (%d shards): %w", key, shards, err)
	}
	if err := catalog.Publish(s.cfg.CatalogDir, s.cfg.Catalog, key, res.Synopsis); err != nil {
		return 0, err
	}
	// An async (wait:false) build has no response to carry the bound.
	s.logf("sharded build %s: %d shards, cost %.6g, suboptimality bound %.6g",
		key, shards, res.Synopsis.ErrorCost(), res.Bound)
	return res.Bound, nil
}

// buildOptions is key.BuildOptions scheduled on the server's shared pool:
// what every build this server runs for a key passes to probsyn.
func (s *Server) buildOptions(key catalog.Key) (probsyn.Metric, []probsyn.BuildOption, error) {
	m, opts, err := key.BuildOptions()
	return m, append(opts, probsyn.WithPool(s.cfg.Pool)), err
}

// datasetKeys lists the dataset's cataloged keys, in Catalog.List's key
// order: each frontier group is contiguous, so ExtractAndPublish
// publishes them in exactly this order.
func (s *Server) datasetKeys(dataset string) []catalog.Key {
	var keys []catalog.Key
	for _, e := range s.cfg.Catalog.List() {
		if e.Key.Dataset == dataset {
			keys = append(keys, e.Key)
		}
	}
	return keys
}

// mutate applies one dataset mutation under the dataset's write lock
// through catalog.Mutation.Republish: the mutated dataset persists while
// every cataloged key group's live frontier absorbs the mutation at once,
// then each key republishes in key order once the dataset is on disk.
// Because live maintenance is bit-identical to a fresh build, every
// republished file is byte-for-byte what an offline rebuild over the
// mutated dataset would write.
//
// If the dataset does not persist, nothing is published and the old
// in-memory dataset stays, but the dataset's live frontiers absorbed a
// mutation that never became durable: they are dropped, and the next
// mutation rebuilds them from the dataset that is on disk.
//
// If anything fails after the dataset persisted, the in-memory source is
// still swapped, and every catalog entry not yet republished is withdrawn
// (memory and disk): the old synopses describe data that no longer
// exists, and a cataloged entry short-circuits /v1/build — withdrawing
// turns the failure into not_found answers and fresh rebuilds over the
// mutated data instead of silently stale estimates.
func (s *Server) mutate(mu *mutation) (domain, republished int, err error) {
	lock := s.datasetLock(mu.dataset)
	lock.Lock()
	defer lock.Unlock()
	src, err := s.dataset(mu.dataset)
	if err != nil {
		return 0, 0, err
	}
	vp, ok := src.(*pdata.ValuePDF)
	if !ok {
		return 0, 0, fmt.Errorf("dataset %q is not a value-pdf dataset", mu.dataset)
	}
	keys := s.datasetKeys(mu.dataset)
	next, republished, err := mu.Republish(vp, s.datasetPath(mu.dataset), s.cfg.CatalogDir, s.cfg.Catalog, keys,
		func(top catalog.Key, next *pdata.ValuePDF) (probsyn.Frontier, error) {
			return s.liveFor(top, next, mu.Mutation)
		})
	if next == nil {
		var pe *catalog.PersistError
		if errors.As(err, &pe) {
			s.dropLives(mu.dataset)
		}
		return 0, 0, err
	}
	s.dsMu.Lock()
	s.datasets[mu.dataset] = next
	s.dsMu.Unlock()
	if err != nil {
		// keys[:republished] are republished (see datasetKeys); withdraw
		// the rest.
		for _, key := range keys[republished:] {
			s.cfg.Catalog.Delete(key)
			if s.cfg.CatalogDir != "" {
				if rmErr := os.Remove(filepath.Join(s.cfg.CatalogDir, key.Filename())); rmErr != nil && !os.IsNotExist(rmErr) {
					s.logf("withdraw %s: %v", key, rmErr)
				}
			}
		}
		return next.N, republished, fmt.Errorf("%w (withdrew %d stale catalog entries; rebuild them over the mutated dataset)", err, len(keys)-republished)
	}
	return next.N, republished, nil
}

// dropLives forgets every live frontier retained for the dataset.
func (s *Server) dropLives(dataset string) {
	s.livesMu.Lock()
	defer s.livesMu.Unlock()
	for k := range s.lives {
		if k.Dataset == dataset {
			delete(s.lives, k)
		}
	}
}

// liveFor returns the live frontier serving top's group — every cataloged
// budget up to top.Budget — over data, the dataset mu produced: the
// retained frontier once it has absorbed mu, or, when none is retained or
// the cataloged budgets outgrew its request, one built over data, which
// needs nothing. The retained set is bounded at cfg.MaxLiveStates;
// inserting beyond it evicts the least-recently-mutated frontier.
//
// A mutation calls liveFor for all its groups at once, one call per group.
// livesMu guards only the map: an absorb or build runs unlocked, and an
// insert by one group may evict a frontier another group is absorbing
// into, which then serves this mutation and is simply not retained.
func (s *Server) liveFor(top catalog.Key, data *pdata.ValuePDF, mu catalog.Mutation) (probsyn.Maintainer, error) {
	lk := top
	lk.Budget = 0
	s.livesMu.Lock()
	ls := s.lives[lk]
	if ls != nil && ls.breq >= top.Budget {
		s.liveClock++
		ls.stamp = s.liveClock
		s.livesMu.Unlock()
		if err := mu.Absorb(ls.m); err != nil {
			// The live state may be mid-mutation; drop it so the next
			// mutation rebuilds from the persisted source.
			s.livesMu.Lock()
			delete(s.lives, lk)
			s.livesMu.Unlock()
			return nil, fmt.Errorf("maintain %s/%s: %w", lk.Family, lk.Metric, err)
		}
		return ls.m, nil
	}
	s.livesMu.Unlock()
	m, opts, err := s.buildOptions(top)
	var live probsyn.Maintainer
	if err == nil {
		live, err = probsyn.BuildLive(data, m, top.Budget, opts...)
	}
	if err != nil {
		return nil, fmt.Errorf("live frontier for %s/%s: %w", lk.Family, lk.Metric, err)
	}
	s.livesMu.Lock()
	s.liveClock++
	s.lives[lk] = &liveState{m: live, breq: top.Budget, stamp: s.liveClock}
	for len(s.lives) > s.cfg.MaxLiveStates {
		var oldest catalog.Key
		first := true
		for k, v := range s.lives {
			if k == lk {
				continue // never evict the entry we are about to use
			}
			if first || v.stamp < s.lives[oldest].stamp {
				oldest, first = k, false
			}
		}
		if first {
			break
		}
		delete(s.lives, oldest)
	}
	s.livesMu.Unlock()
	return live, nil
}

// dataset returns the parsed source for a dataset name, reading and
// caching it on first use.
func (s *Server) dataset(name string) (probsyn.Source, error) {
	s.dsMu.RLock()
	src, ok := s.datasets[name]
	s.dsMu.RUnlock()
	if ok {
		return src, nil
	}
	f, err := os.Open(s.datasetPath(name))
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	defer f.Close()
	src, err = probsyn.ReadDataset(f)
	if err != nil {
		return nil, fmt.Errorf("dataset %q: %w", name, err)
	}
	s.dsMu.Lock()
	if prev, ok := s.datasets[name]; ok {
		src = prev // another worker parsed it first; keep one copy
	} else {
		s.datasets[name] = src
	}
	s.dsMu.Unlock()
	return src, nil
}

func (s *Server) datasetPath(name string) string {
	return filepath.Join(s.cfg.DataDir, name+".pd")
}

// validDatasetName rejects names that could resolve outside the data
// directory: the dataset is a filename stem, never a path.
func validDatasetName(name string) error {
	if strings.ContainsAny(name, "/\\") || name == "." || name == ".." || strings.HasPrefix(name, "..") {
		return fmt.Errorf("invalid dataset name %q", name)
	}
	return nil
}

// logf routes operational log lines to the configured sink.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ---- JSON plumbing ----

// setJSON marks a response as JSON. It assigns the header key directly
// (Header.Set would canonicalise a key that is canonical already) and a
// fresh one-element slice, 16 bytes, the one allocation a 200 read makes: a
// slice shared between responses would be aliased by every response's
// header map, where one h[k][0] = v downstream rewrites it for all.
func setJSON(w http.ResponseWriter) {
	w.Header()["Content-Type"] = []string{"application/json"}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	setJSON(w)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: APIError{Code: code, Message: fmt.Sprintf(format, args...)}})
}
