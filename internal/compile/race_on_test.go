//go:build race

package compile_test

// raceEnabled narrows the every-workload loop-tracker differential test:
// it is single-goroutine interpreter work that the race detector slows by
// an order of magnitude and has nothing to find in.
const raceEnabled = true
