//go:build !race

package core

// raceEnabled is set by race_on_test.go when building with -race.
const raceEnabled = false
