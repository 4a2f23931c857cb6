package compile_test

import (
	"fmt"
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
	"phasemark/internal/minivm/minivmtest"
	"phasemark/internal/workloads"
)

// assertTrackerMatchesRegions runs prog once under both loop trackers and
// requires the table-driven tracker to emit the region walk's exact
// enter/iterate/exit sequence up to the run's end, a trap included. A
// nonzero maxInstrs bounds the run. It reports the number of loop events
// and the run's error.
func assertTrackerMatchesRegions(t *testing.T, name string, prog *minivm.Program, maxInstrs uint64, args ...int64) (uint64, error) {
	t.Helper()
	loops := minivm.FindLoops(prog)
	got, want := minivmtest.NewLoopStream(), minivmtest.NewLoopStream()
	m := minivm.NewMachine(prog, minivm.MultiObserver{
		minivm.NewLoopTracker(loops, got),
		minivmtest.NewRegionTracker(loops, want),
	})
	if maxInstrs != 0 {
		m.MaxInstrs = maxInstrs
	}
	_, err := m.Run(args...)
	if *got != *want {
		t.Fatalf("%s: table tracker emitted %d loop events (hash %x), region walk %d (hash %x)",
			name, got.Events, got.Hash, want.Events, want.Hash)
	}
	return got.Events, err
}

const directRecursion = `
proc fib(n) {
	if (n < 2) { return n; }
	var s = 0;
	for (var i = 0; i < 2; i = i + 1) { s = s + fib(n - 1 - i); }
	return s;
}
proc main(k) {
	var s = 0;
	for (var i = 0; i < 3; i = i + 1) { s = s + fib(k); }
	return s;
}`

const mutualRecursion = `
proc even(n) {
	var s = 0;
	while (s < n) { s = s + 2; }
	if (n == 0) { return 1; }
	return odd(n - 1);
}
proc odd(n) { if (n == 0) { return 0; } return even(n - 1); }
proc main(k) {
	var s = 0;
	for (var i = 0; i < k; i = i + 1) { s = s + odd(i) + even(i); }
	return s;
}`

// overlappingRegions has two loops whose static regions overlap without
// nesting — b1..b3 (latch b3) and b2..b4 (latch b4) — and calls into
// them from a loop in main, so the tracker's fast path and its region
// walk fallback both see every transition between them.
const overlappingRegions = `program entry=main globals=0
proc tangle args=1 regs=4 line=1 {
b0: line=1 col=1
  const r1, 0
  const r3, 0
  jump b1
b1: line=2 col=1
  addi r1, r1, 1
  jump b2
b2: line=3 col=1
  addi r3, r3, 1
  jump b3
b3: line=4 col=1
  br r1 < r0, b1, b4
b4: line=5 col=1
  const r2, 9
  br r3 < r2, b2, b5
b5: line=6 col=1
  ret r3
}
proc main args=1 regs=3 line=8 {
b0: line=8 col=1
  const r1, 0
  jump b1
b1: line=9 col=1
  br r1 < r0, b2, b4
b2: line=10 col=1
  call r2, tangle(r1), b3 line=10 col=3
b3: line=11 col=1
  addi r1, r1, 1
  jump b1
b4: line=12 col=1
  ret r1
}
`

// TestLoopTrackerTableMatchesRegions pins the loop tracker's per-block
// innermost-loop table against the region walk it short-cuts, on every
// workload's train input, random programs, direct and mutual recursion,
// and loops whose regions overlap without nesting. Under -race or -short
// it runs the cross-input benchmark's four workloads.
func TestLoopTrackerTableMatchesRegions(t *testing.T) {
	narrow := raceEnabled || testing.Short()
	for _, w := range workloads.All() {
		switch w.Name {
		case "gzip", "mcf", "vortex", "gcc":
		default:
			if narrow {
				continue
			}
		}
		for _, opt := range []bool{false, true} {
			name := fmt.Sprintf("%s opt=%v", w.Name, opt)
			n, err := assertTrackerMatchesRegions(t, name, w.MustCompile(opt), 0, w.Train...)
			if err != nil || n == 0 {
				t.Fatalf("%s: %d loop events, error %v; the comparison is vacuous", name, n, err)
			}
		}
	}
	for seed := uint64(0); seed < 60; seed++ {
		src := compile.GenProgram(seed*7919 + 11)
		for _, opt := range []bool{false, true} {
			prog, err := compile.CompileSource(src, compile.Options{Optimize: opt})
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			for _, arg := range []int64{0, 3, 17} {
				assertTrackerMatchesRegions(t, fmt.Sprintf("random seed %d opt=%v arg %d", seed, opt, arg), prog, 2_000_000, arg)
			}
		}
	}
	for _, src := range []string{directRecursion, mutualRecursion} {
		for _, opt := range []bool{false, true} {
			prog, err := compile.CompileSource(src, compile.Options{Optimize: opt})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := assertTrackerMatchesRegions(t, "recursion", prog, 0, 9); err != nil {
				t.Fatal(err)
			}
		}
	}
	prog, err := minivm.ParseAsm(overlappingRegions)
	if err != nil {
		t.Fatal(err)
	}
	if loops := minivm.FindLoops(prog).ByProc[0]; len(loops) != 2 || loops[1].Parent != nil || loops[1].Head.Index > loops[0].End {
		t.Fatalf("tangle: want two overlapping, non-nested loops, got %v", loops)
	}
	for _, arg := range []int64{0, 1, 5} {
		if _, err := assertTrackerMatchesRegions(t, fmt.Sprintf("overlapping regions arg %d", arg), prog, 0, arg); err != nil {
			t.Fatal(err)
		}
	}
}
