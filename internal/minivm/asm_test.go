package minivm

import (
	"testing"
)

func TestAsmRoundTripHandBuilt(t *testing.T) {
	p := buildProg(t)
	text := Print(p)
	back, err := ParseAsm(text)
	if err != nil {
		t.Fatalf("parse failed: %v\n%s", err, text)
	}
	if Print(back) != text {
		t.Fatalf("round trip not fixed-point:\n--- first ---\n%s--- second ---\n%s", text, Print(back))
	}
	// Behavior identical.
	m1 := NewMachine(p, nil)
	rv1, _ := m1.Run(12)
	m2 := NewMachine(back, nil)
	rv2, _ := m2.Run(12)
	if rv1 != rv2 || m1.Instructions() != m2.Instructions() {
		t.Fatalf("behavior changed: %d/%d vs %d/%d",
			rv1, m1.Instructions(), rv2, m2.Instructions())
	}
}

func TestAsmRoundTripWithCalls(t *testing.T) {
	callee := &Proc{Name: "double", NumArgs: 1, NumRegs: 2}
	callee.Blocks = []*Block{{
		Instr: []Instr{{Op: OpAddI, A: 1, B: 0, Imm: 0}, {Op: OpAdd, A: 1, B: 1, C: 0}},
		Term:  Term{Kind: TermRet, Ret: 1},
	}}
	main := &Proc{Name: "main", NumArgs: 1, NumRegs: 3, ID: 1}
	main.Blocks = []*Block{
		{Term: Term{Kind: TermCall, Callee: 0, Args: []uint8{0}, Ret: 1, Next: 1, Line: 9, Col: 4}},
		{Instr: []Instr{
			{Op: OpOut, A: 1},
			{Op: OpConst, A: 2, Imm: 100},
			{Op: OpLoad, A: 2, B: 2, Imm: -50},
			{Op: OpStore, A: 1, B: 2, Imm: 3},
		}, Term: Term{Kind: TermRet, Ret: 1}},
	}
	p := &Program{Procs: []*Proc{callee, main}, Entry: 1, GlobalWords: 200}
	p.RenumberBlocks()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	text := Print(p)
	back, err := ParseAsm(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if Print(back) != text {
		t.Fatalf("not a fixed point:\n%s\nvs\n%s", text, Print(back))
	}
	bt := back.Procs[back.Entry].Blocks[0].Term
	if bt.Kind != TermCall || bt.Line != 9 || bt.Col != 4 || back.Procs[bt.Callee].Name != "double" {
		t.Fatalf("call debug info lost: %+v", bt)
	}
}

func TestAsmParseErrors(t *testing.T) {
	cases := map[string]string{
		"no header":       "proc main args=0 regs=1 {\nb0: line=0 col=0\n  halt\n}",
		"bad mnemonic":    "program entry=main globals=0\nproc main args=0 regs=1 {\nb0: line=0 col=0\n  zorp r0\n  halt\n}",
		"unknown callee":  "program entry=main globals=0\nproc main args=0 regs=2 {\nb0: line=0 col=0\n  call r0, ghost(), b0 line=0 col=0\n}",
		"bad register":    "program entry=main globals=0\nproc main args=0 regs=1 {\nb0: line=0 col=0\n  const r99, 1\n  halt\n}",
		"missing entry":   "program entry=nope globals=0\nproc main args=0 regs=1 {\nb0: line=0 col=0\n  halt\n}",
		"out-of-order":    "program entry=main globals=0\nproc main args=0 regs=1 {\nb1: line=0 col=0\n  halt\n}",
		"instr w/o label": "program entry=main globals=0\nproc main args=0 regs=1 {\n  halt\n}",
		"ret w/o operand": "program entry=main globals=0\nproc main args=0 regs=1 {\nb0: line=0 col=0\n  ret\n}",
		"jump w/o target": "program entry=main globals=0\nproc main args=0 regs=1 {\nb0: line=0 col=0\n  jump\n}",
	}
	for name, src := range cases {
		if _, err := ParseAsm(src); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
