//go:build !race

package compile_test

// raceEnabled is set by race_on_test.go when building with -race.
const raceEnabled = false
