package minivm_test

import (
	"errors"
	"strings"
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
	"phasemark/internal/minivm/minivmtest"
	"phasemark/internal/workloads"
)

// assertMatchesReference runs prog on the production machine and on the
// reference interpreter and requires identical observable behaviour.
func assertMatchesReference(t *testing.T, name string, prog *minivm.Program, lim minivmtest.Limits, args ...int64) minivmtest.Outcome {
	t.Helper()
	want := minivmtest.RunRef(prog, lim, args...)
	got := minivmtest.RunMachine(prog, lim, args...)
	if d := minivmtest.Diff(got, want); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	return got
}

// TestRunMatchesReference pins the execution translation: every
// workload's train input, built -O0, optimized and with the stack
// backend, produces the reference interpreter's event stream, counters,
// output, memory, return value and error. Under -race or -short it runs
// the cross-input benchmark's four workloads.
func TestRunMatchesReference(t *testing.T) {
	narrow := raceEnabled || testing.Short()
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			if narrow {
				switch w.Name {
				case "gzip", "mcf", "vortex", "gcc":
				default:
					t.Skip("narrowed under -race/-short")
				}
			}
			t.Parallel()
			stack, err := compile.CompileSource(w.Source, compile.Options{Stack: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name string
				prog *minivm.Program
			}{{"O0", w.MustCompile(false)}, {"opt", w.MustCompile(true)}, {"stack", stack}} {
				out := assertMatchesReference(t, v.name, v.prog, minivmtest.Limits{}, w.Train...)
				if out.Err != nil || out.Stream.Events == 0 {
					t.Fatalf("%s: vacuous comparison: %d events, error %v", v.name, out.Stream.Events, out.Err)
				}
			}
		})
	}
}

// trapProgram assembles one proc main(r0, r1) whose only block runs body
// and returns r0, over 8 words of memory.
func trapProgram(t *testing.T, body string) *minivm.Program {
	t.Helper()
	src := "program entry=main globals=8\nproc main args=2 regs=4 line=0 {\nb0: line=0 col=0\n" +
		body + "\n  ret r0\n}\n"
	p, err := minivm.ParseAsm(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	return p
}

// TestRunMatchesReferenceOnTraps covers every way a run ends early: the
// error, its message and every event emitted before it must match,
// including loads, stores and marks executed in the trapping block.
func TestRunMatchesReferenceOnTraps(t *testing.T) {
	cases := []struct {
		name, body string
		args       []int64
		lim        minivmtest.Limits
		want       error // the trap the run must end with, nil for none
	}{
		{"div by zero", "  store [r0+1], r0\n  div r2, r0, r1\n  out r2", []int64{5, 0}, minivmtest.Limits{}, minivm.ErrDivByZero},
		{"mod by zero", "  const r3, 0\n  mark 4\n  mod r2, r0, r3", []int64{7, 1}, minivmtest.Limits{}, minivm.ErrDivByZero},
		{"dead div by zero", "  div r2, r0, r1\n  const r2, 5\n  out r2", []int64{7, 0}, minivmtest.Limits{}, minivm.ErrDivByZero},
		{"load fault", "  load r2, [r0+1]\n  load r3, [r1+8]", []int64{2, 0}, minivmtest.Limits{}, minivm.ErrMemFault},
		{"load fault, constant address", "  const r3, -1\n  load r2, [r3+0]", []int64{2, 0}, minivmtest.Limits{}, minivm.ErrMemFault},
		{"store fault", "  store [r0+0], r1\n  store [r1+-1], r0", []int64{3, 0}, minivmtest.Limits{}, minivm.ErrMemFault},
		{"store fault, constant value", "  const r2, 9\n  store [r1+0], r2\n  store [r0+0], r2", []int64{1, 8}, minivmtest.Limits{}, minivm.ErrMemFault},
		{"marks interleaved with loads", "  mark 1\n  load r2, [r0+0]\n  mark 2\n  store [r0+1], r2\n  load r3, [r0+1]\n  mark 3\n  out r3", []int64{0, 0}, minivmtest.Limits{}, nil},
		{"instruction limit", "  mark 1\n  load r2, [r0+0]", []int64{0, 0}, minivmtest.Limits{MaxInstrs: 2}, minivm.ErrInstrLimit},
	}
	for _, tc := range cases {
		out := assertMatchesReference(t, tc.name, trapProgram(t, tc.body), tc.lim, tc.args...)
		if !errors.Is(out.Err, tc.want) {
			t.Errorf("%s: run ended with %v, want %v", tc.name, out.Err, tc.want)
		}
	}

	// A procedure that calls itself without end: the depth limit, and an
	// instruction limit reached with many frames still active.
	rec, err := minivm.ParseAsm(`program entry=main globals=64
proc main args=1 regs=3 line=0 {
b0: line=0 col=0
  mark 7
  store [r0+0], r0
  addi r1, r0, 1
  call r2, main(r1), b1 line=0 col=0
b1: line=0 col=0
  ret r2
}
`)
	if err != nil {
		t.Fatal(err)
	}
	for lim, want := range map[minivmtest.Limits]error{{MaxDepth: 50}: minivm.ErrStackOverflow, {MaxInstrs: 97}: minivm.ErrInstrLimit} {
		if out := assertMatchesReference(t, "recursion", rec, lim, 0); !errors.Is(out.Err, want) {
			t.Errorf("recursion %+v: run ended with %v, want %v", lim, out.Err, want)
		}
	}
}

// TestTranslationRejectsInvalidRegisters: a program that skipped Validate
// and names a register beyond its proc's NumRegs must fail loudly at
// NewMachine, not alias a neighbouring frame through a masked window.
func TestTranslationRejectsInvalidRegisters(t *testing.T) {
	breakers := map[string]func(b *minivm.Block){
		"instruction operand": func(b *minivm.Block) { b.Instr[0].B = 9 },
		"branch operand":      func(b *minivm.Block) { b.Term = minivm.Term{Kind: minivm.TermBranch, A: 0, B: 4} },
		"return register":     func(b *minivm.Block) { b.Term.Ret = 63 },
	}
	for name, breakIt := range breakers {
		main := &minivm.Proc{Name: "main", NumArgs: 1, NumRegs: 4}
		main.Blocks = []*minivm.Block{{
			Instr: []minivm.Instr{{Op: minivm.OpAddI, A: 1, B: 0, Imm: 1}},
			Term:  minivm.Term{Kind: minivm.TermRet, Ret: 1},
		}}
		p := &minivm.Program{Procs: []*minivm.Proc{main}}
		p.RenumberBlocks()
		breakIt(main.Blocks[0])
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "register r") || !strings.Contains(msg, `proc "main"`) {
					t.Errorf("%s: NewMachine panicked with %q, want an out-of-range register message", name, msg)
				}
			}()
			minivm.NewMachine(p, nil)
		}()
	}
}
