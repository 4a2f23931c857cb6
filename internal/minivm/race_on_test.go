//go:build race

package minivm_test

// raceEnabled narrows the every-workload differential tests: they are
// single-goroutine interpreter work that the race detector slows by an
// order of magnitude and has nothing to find in.
const raceEnabled = true
