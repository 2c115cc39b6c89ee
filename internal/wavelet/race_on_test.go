//go:build race

package wavelet_test

// raceEnabled: the race detector makes sync.Pool drop Puts at random, so
// an allocation bound that rests on NewSweep's pool of sets does not hold
// under it.
const raceEnabled = true
