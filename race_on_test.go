//go:build race

package probsyn_test

// raceEnabled: the race detector's instrumentation allocates, so an
// allocation bound does not hold under it.
const raceEnabled = true
