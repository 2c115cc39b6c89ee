//go:build !race

package wavelet_test

const raceEnabled = false
