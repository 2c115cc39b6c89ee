package server

import (
	"os"
	"sync"

	"probsyn/internal/catalog"
)

// flatKeeper maintains the catalog directory's flat file (see
// internal/catalog: the format replicas boot from in milliseconds)
// against live catalog changes. The discipline is remove-then-repack:
//
//   - JobStart runs before any work that may persist or withdraw
//     catalog entries (builds, sweeps, mutations) and REMOVES the flat
//     file first — so at every instant, a flat file that exists on disk
//     describes exactly the .psyn files beside it. A crash mid-job boots
//     from the .psyn directory alone; nothing can serve a stale flat
//     snapshot.
//   - JobEnd marks the work finished; once no work is active, the
//     background packer re-packs the whole catalog and writes the file
//     atomically. Packs racing a new job are discarded (generation
//     check) — the new job's end will kick another pack.
//
// Removal and the repack write both happen under the keeper's lock, so
// a repack can never resurrect a file a just-started job removed.
type flatKeeper struct {
	path string
	cat  *catalog.Catalog
	logf func(format string, args ...any)

	mu     sync.Mutex
	active int    // jobs between JobStart and JobEnd
	gen    uint64 // bumped by every JobStart; stamps pack snapshots

	kick chan struct{} // coalesced repack signal
	stop chan struct{}
	done chan struct{}
}

func newFlatKeeper(path string, cat *catalog.Catalog, logf func(format string, args ...any)) *flatKeeper {
	fk := &flatKeeper{
		path: path,
		cat:  cat,
		logf: logf,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go fk.loop()
	return fk
}

// JobStart invalidates the flat file before catalog-changing work
// begins. Idempotent and cheap (one unlink); called once per job.
func (fk *flatKeeper) JobStart() {
	fk.mu.Lock()
	fk.gen++
	fk.active++
	if err := os.Remove(fk.path); err != nil && !os.IsNotExist(err) {
		fk.logf("flat catalog: invalidate %s: %v", fk.path, err)
	}
	fk.mu.Unlock()
}

// JobEnd marks the job finished and, when it was the last active one,
// kicks the background repack.
func (fk *flatKeeper) JobEnd() {
	fk.mu.Lock()
	fk.active--
	idle := fk.active == 0
	fk.mu.Unlock()
	if idle {
		select {
		case fk.kick <- struct{}{}:
		default:
		}
	}
}

func (fk *flatKeeper) loop() {
	defer close(fk.done)
	for {
		select {
		case <-fk.stop:
			return
		case <-fk.kick:
			fk.packOnce()
		}
	}
}

// packOnce re-packs the catalog if the server is quiescent. The
// expensive serialization runs outside the lock; the write (and its
// staleness check) runs inside it, so the file on disk is always either
// absent or a pack of a catalog no job has touched since.
func (fk *flatKeeper) packOnce() {
	fk.mu.Lock()
	if fk.active != 0 {
		fk.mu.Unlock()
		return // the active job's end re-kicks
	}
	gen0 := fk.gen
	fk.mu.Unlock()

	data, err := catalog.PackBytes(fk.cat.List())
	if err != nil {
		fk.logf("flat catalog: pack: %v", err)
		return
	}

	fk.mu.Lock()
	defer fk.mu.Unlock()
	if fk.active != 0 || fk.gen != gen0 {
		return // a job started mid-pack; the snapshot is stale
	}
	if err := catalog.WriteBlob(fk.path, data); err != nil {
		fk.logf("flat catalog: write %s: %v", fk.path, err)
	}
}

// Close stops the background packer and runs one final synchronous
// pack — the shutdown path, after every queued job has drained, so the
// next boot finds a flat file covering everything this process built.
func (fk *flatKeeper) Close() {
	close(fk.stop)
	<-fk.done
	fk.packOnce()
}
