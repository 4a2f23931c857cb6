// Package minivmtest holds the reference implementations the minivm
// differential tests compare production against: the interpreter loop
// that dispatched Block.Instr directly (Ref) and the loop tracker that
// walked loop regions on every block (RegionTracker), plus observers that
// hash the ordered event streams both produce. Only tests import it.
package minivmtest

import (
	"fmt"

	"phasemark/internal/minivm"
)

// Ref is the reference interpreter: the loop that executed Block.Instr
// directly, before NewMachine translated programs. Its observable
// behaviour — events and their order, counters, output, memory, return
// value and error — is what minivm.Machine must reproduce. Every event
// goes to the one observer, whatever its EventMask.
type Ref struct {
	prog   *minivm.Program
	mem    []int64
	obs    minivm.Observer
	regs   []int64
	frames []refFrame

	out       []int64
	instrs    uint64
	branches  uint64
	calls     uint64
	memRefs   uint64
	marks     uint64
	MaxInstrs uint64
	MaxDepth  int
	MarkFunc  func(id int64)
}

type refFrame struct {
	proc   *minivm.Proc
	base   int
	nregs  int
	retBlk int
	retReg uint8
}

// NewRef builds a reference machine for prog reporting to obs (nil for
// none), with minivm's default limits.
func NewRef(prog *minivm.Program, obs minivm.Observer) *Ref {
	return &Ref{
		prog:      prog,
		mem:       make([]int64, prog.GlobalWords),
		obs:       obs,
		MaxInstrs: minivm.DefaultMaxInstrs,
		MaxDepth:  minivm.DefaultMaxDepth,
	}
}

// Instructions reports the dynamic instructions executed so far.
func (m *Ref) Instructions() uint64 { return m.instrs }

// Branches reports the conditional branches executed so far.
func (m *Ref) Branches() uint64 { return m.branches }

// Calls reports the procedure calls executed so far.
func (m *Ref) Calls() uint64 { return m.calls }

// MemRefs reports the data memory references executed so far.
func (m *Ref) MemRefs() uint64 { return m.memRefs }

// Output returns the values emitted by OpOut, in order.
func (m *Ref) Output() []int64 { return m.out }

// Mem exposes the data memory.
func (m *Ref) Mem() []int64 { return m.mem }

func growZero(s []int64, n int) []int64 {
	l := len(s)
	if l+n <= cap(s) {
		s = s[: l+n : cap(s)]
		clear(s[l:])
		return s
	}
	ns := make([]int64, l+n, 2*(l+n)+64)
	copy(ns, s)
	return ns
}

// Run executes the entry procedure exactly as minivm.Machine.Run did
// before translation.
func (m *Ref) Run(args ...int64) (int64, error) {
	entry := m.prog.EntryProc()
	if len(args) != entry.NumArgs {
		return 0, fmt.Errorf("minivm: entry %q wants %d args, got %d",
			entry.Name, entry.NumArgs, len(args))
	}
	m.regs = growZero(m.regs[:0], entry.NumRegs)
	copy(m.regs, args)
	m.frames = append(m.frames[:0], refFrame{proc: entry, nregs: entry.NumRegs})
	fr := &m.frames[0]
	bi := 0

	for {
		b := fr.proc.Blocks[bi]
		if m.obs != nil {
			m.obs.OnBlock(b)
		}
		m.instrs += uint64(b.Weight())
		if m.instrs > m.MaxInstrs {
			return 0, fmt.Errorf("%w (limit %d)", minivm.ErrInstrLimit, m.MaxInstrs)
		}
		regs := m.regs[fr.base : fr.base+fr.nregs]
		for _, in := range b.Instr {
			switch in.Op {
			case minivm.OpNop:
			case minivm.OpConst:
				regs[in.A] = in.Imm
			case minivm.OpMov:
				regs[in.A] = regs[in.B]
			case minivm.OpAdd:
				regs[in.A] = regs[in.B] + regs[in.C]
			case minivm.OpSub:
				regs[in.A] = regs[in.B] - regs[in.C]
			case minivm.OpMul:
				regs[in.A] = regs[in.B] * regs[in.C]
			case minivm.OpDiv:
				if regs[in.C] == 0 {
					return 0, fmt.Errorf("%w in %s b%d", minivm.ErrDivByZero, fr.proc.Name, b.Index)
				}
				regs[in.A] = regs[in.B] / regs[in.C]
			case minivm.OpMod:
				if regs[in.C] == 0 {
					return 0, fmt.Errorf("%w in %s b%d", minivm.ErrDivByZero, fr.proc.Name, b.Index)
				}
				regs[in.A] = regs[in.B] % regs[in.C]
			case minivm.OpAnd:
				regs[in.A] = regs[in.B] & regs[in.C]
			case minivm.OpOr:
				regs[in.A] = regs[in.B] | regs[in.C]
			case minivm.OpXor:
				regs[in.A] = regs[in.B] ^ regs[in.C]
			case minivm.OpShl:
				regs[in.A] = regs[in.B] << (uint64(regs[in.C]) & 63)
			case minivm.OpShr:
				regs[in.A] = int64(uint64(regs[in.B]) >> (uint64(regs[in.C]) & 63))
			case minivm.OpNeg:
				regs[in.A] = -regs[in.B]
			case minivm.OpNot:
				regs[in.A] = ^regs[in.B]
			case minivm.OpAddI:
				regs[in.A] = regs[in.B] + in.Imm
			case minivm.OpMulI:
				regs[in.A] = regs[in.B] * in.Imm
			case minivm.OpLoad:
				addr := regs[in.B] + in.Imm
				if addr < 0 || addr >= int64(len(m.mem)) {
					return 0, fmt.Errorf("%w: load word %d in %s b%d", minivm.ErrMemFault, addr, fr.proc.Name, b.Index)
				}
				m.memRefs++
				if m.obs != nil {
					m.obs.OnMem(uint64(addr)*minivm.WordBytes, false)
				}
				regs[in.A] = m.mem[addr]
			case minivm.OpStore:
				addr := regs[in.B] + in.Imm
				if addr < 0 || addr >= int64(len(m.mem)) {
					return 0, fmt.Errorf("%w: store word %d in %s b%d", minivm.ErrMemFault, addr, fr.proc.Name, b.Index)
				}
				m.memRefs++
				if m.obs != nil {
					m.obs.OnMem(uint64(addr)*minivm.WordBytes, true)
				}
				m.mem[addr] = regs[in.A]
			case minivm.OpOut:
				m.out = append(m.out, regs[in.A])
			case minivm.OpMark:
				m.marks++
				if m.MarkFunc != nil {
					m.MarkFunc(in.Imm)
				}
			}
		}

		t := &b.Term
		switch t.Kind {
		case minivm.TermJump:
			bi = t.Target
		case minivm.TermBranch:
			m.branches++
			taken := t.Cond.Eval(regs[t.A], regs[t.B])
			if m.obs != nil {
				m.obs.OnBranch(b, taken)
			}
			if taken {
				bi = t.Target
			} else {
				bi = t.Else
			}
		case minivm.TermCall:
			m.calls++
			if len(m.frames) >= m.MaxDepth {
				return 0, minivm.ErrStackOverflow
			}
			callee := m.prog.Procs[t.Callee]
			base := len(m.regs)
			m.regs = growZero(m.regs, callee.NumRegs)
			caller := m.regs[fr.base : fr.base+fr.nregs]
			for i, a := range t.Args {
				m.regs[base+i] = caller[a]
			}
			if m.obs != nil {
				m.obs.OnCall(b, callee)
			}
			m.frames = append(m.frames, refFrame{
				proc:   callee,
				base:   base,
				nregs:  callee.NumRegs,
				retBlk: t.Next,
				retReg: t.Ret,
			})
			fr = &m.frames[len(m.frames)-1]
			bi = 0
		case minivm.TermRet:
			rv := regs[t.Ret]
			if m.obs != nil {
				m.obs.OnReturn(fr.proc)
			}
			if len(m.frames) == 1 {
				return rv, nil
			}
			retBlk, retReg := fr.retBlk, fr.retReg
			m.regs = m.regs[:fr.base]
			m.frames = m.frames[:len(m.frames)-1]
			fr = &m.frames[len(m.frames)-1]
			m.regs[fr.base+int(retReg)] = rv
			bi = retBlk
		case minivm.TermHalt:
			if m.obs != nil {
				for i := len(m.frames) - 1; i >= 0; i-- {
					m.obs.OnReturn(m.frames[i].proc)
				}
			}
			return 0, nil
		}
	}
}
