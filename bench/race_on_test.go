//go:build race

package main

// raceEnabled: the race detector slows the workloads about tenfold, so
// the smoke test's time limit does not apply under it.
const raceEnabled = true
