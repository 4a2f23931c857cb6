package minivm_test

import (
	"strings"
	"testing"

	"phasemark/internal/minivm"
	"phasemark/internal/minivm/minivmtest"
)

// fuzzMaxGlobals bounds the data memory of a fuzzed program that is run:
// the header's globals= is arbitrary input.
const fuzzMaxGlobals = 1 << 16

// FuzzParseAsm checks the assembly round trip: any text ParseAsm accepts
// must print back to a fixed point (Print(Parse(Print(p))) == Print(p)),
// and the reparsed program must re-validate. Rejected inputs must fail
// with an error, never a panic — ParseAsm consumes checked-in artifacts
// and hand-edited dumps, both attacker-ish inputs. An accepted program is
// also an arbitrary CFG to execute: run under bounded instruction and
// call-depth limits, the production machine must reproduce the reference
// interpreter's event stream, counters, output, memory and error.
func FuzzParseAsm(f *testing.F) {
	seed := &minivm.Proc{Name: "main", NumArgs: 1, NumRegs: 3}
	seed.Blocks = []*minivm.Block{
		{Instr: []minivm.Instr{
			{Op: minivm.OpConst, A: 1, Imm: 41},
			{Op: minivm.OpAdd, A: 2, B: 0, C: 1},
			{Op: minivm.OpOut, A: 2},
		}, Term: minivm.Term{Kind: minivm.TermRet, Ret: 2}},
	}
	p := &minivm.Program{Procs: []*minivm.Proc{seed}, Entry: 0, GlobalWords: 8}
	p.RenumberBlocks()
	if err := p.Validate(); err != nil {
		f.Fatal(err)
	}
	f.Add(minivm.Print(p))
	f.Add("program entry=main globals=0\n")
	f.Add("proc main args=0 regs=1 {\n")

	f.Fuzz(func(t *testing.T, src string) {
		prog, err := minivm.ParseAsm(src)
		if err != nil {
			return // rejected cleanly
		}
		text := minivm.Print(prog)
		back, err := minivm.ParseAsm(text)
		if err != nil {
			t.Fatalf("accepted program fails to reparse: %v\n%s", err, text)
		}
		if again := minivm.Print(back); again != text {
			i := 0
			for i < len(text) && i < len(again) && text[i] == again[i] {
				i++
			}
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			t.Fatalf("round trip not a fixed point near byte %d:\nfirst:  ...%s\nsecond: ...%s",
				i, snippet(text, lo), snippet(again, lo))
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("reparsed program fails validation: %v", err)
		}
		if prog.GlobalWords > fuzzMaxGlobals {
			return
		}
		args := make([]int64, prog.EntryProc().NumArgs)
		for i := range args {
			args[i] = int64(i*3 - 1)
		}
		lim := minivmtest.Limits{MaxInstrs: 20_000, MaxDepth: 64}
		if d := minivmtest.Diff(minivmtest.RunMachine(prog, lim, args...), minivmtest.RunRef(prog, lim, args...)); d != "" {
			t.Fatalf("translated run differs from the reference: %s\n%s", d, text)
		}
	})
}

func snippet(s string, lo int) string {
	hi := lo + 80
	if hi > len(s) {
		hi = len(s)
	}
	return strings.ReplaceAll(s[lo:hi], "\n", "\\n")
}
