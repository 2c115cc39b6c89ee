//go:build !race

package probsyn_test

const raceEnabled = false
