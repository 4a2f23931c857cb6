package compile

import (
	"testing"

	"phasemark/internal/minivm"
	"phasemark/internal/minivm/minivmtest"
	"phasemark/internal/stats"
)

// FuzzCompileDiff is the native-fuzzing face of the differential backend
// oracle: each fuzz input seeds the random program generator (progGen,
// shared with TestOptimizerEquivalenceFuzz), and all three backends —
// -O0 register, optimized register, stack machine — must agree on return
// value and out() stream. The -O0 program must also run identically —
// event stream, counters, output, memory, error — on the production
// machine and on the reference interpreter, which pins the execution
// translation on the unoptimized code every figure traces. `go test
// -fuzz FuzzCompileDiff` explores seeds the fixed trial loop never
// reaches.
func FuzzCompileDiff(f *testing.F) {
	for _, s := range []uint64{0, 1, 7, 42, 1 << 20, 0xdeadbeef} {
		f.Add(s, int64(3))
	}
	f.Fuzz(func(t *testing.T, seed uint64, arg int64) {
		g := &progGen{r: stats.NewRNG(seed*2654435761 + 1)}
		src := g.generate()

		progs := make([]*minivm.Program, 3)
		for i, o := range []Options{{}, {Optimize: true}, {Stack: true}} {
			p, err := CompileSource(src, o)
			if err != nil {
				t.Fatalf("seed %d backend %d: compile failed: %v\nsource:\n%s", seed, i, err, src)
			}
			progs[i] = p
		}

		run := func(p *minivm.Program) (int64, []int64, error) {
			m := minivm.NewMachine(p, nil)
			m.MaxInstrs = 5_000_000
			rv, err := m.Run(arg)
			return rv, m.Output(), err
		}
		lim := minivmtest.Limits{MaxInstrs: 5_000_000}
		if d := minivmtest.Diff(minivmtest.RunMachine(progs[0], lim, arg), minivmtest.RunRef(progs[0], lim, arg)); d != "" {
			t.Fatalf("seed %d arg %d: -O0 run differs from the reference interpreter: %s\nsource:\n%s", seed, arg, d, src)
		}
		rv0, out0, err0 := run(progs[0])
		for i, p := range progs[1:] {
			rv, out, err := run(p)
			if (err0 == nil) != (err == nil) {
				t.Fatalf("seed %d arg %d backend %d: error mismatch %v vs %v\nsource:\n%s",
					seed, arg, i+1, err0, err, src)
			}
			if err0 != nil {
				continue // both trapped (e.g. instruction budget); equivalence is moot
			}
			if rv != rv0 {
				t.Fatalf("seed %d arg %d backend %d: return %d vs %d\nsource:\n%s",
					seed, arg, i+1, rv, rv0, src)
			}
			if len(out) != len(out0) {
				t.Fatalf("seed %d arg %d backend %d: out lengths %d vs %d\nsource:\n%s",
					seed, arg, i+1, len(out), len(out0), src)
			}
			for j := range out {
				if out[j] != out0[j] {
					t.Fatalf("seed %d arg %d backend %d: out[%d] %d vs %d\nsource:\n%s",
						seed, arg, i+1, j, out[j], out0[j], src)
				}
			}
		}
	})
}
