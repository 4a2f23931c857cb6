package minivm

import "fmt"

// Execution translation. NewMachine rewrites every block once into the
// form Run dispatches (DESIGN.md §12):
//
//   - copies and constants known inside a block are propagated into the
//     operands that read them, using immediate forms (addi, shli, a branch
//     against an immediate, absolute loads and stores, a store of an
//     immediate value);
//   - pure register writes that no later read can observe — dead under a
//     whole-procedure liveness over 64-bit register bitsets — are dropped,
//     which is what removes the propagated movs and consts;
//   - block-to-block transfers are resolved to slots in one flat block
//     table, and branch conditions to one terminator kind each.
//
// Everything observable is kept in order with the same arguments: loads
// and stores (their OnMem and their faults), OpOut, OpMark, division
// traps, and the original block's weight, observer argument and position
// in error messages. Only register writes whose value is never read
// disappear.

// xop is a translated straight-line opcode. The register forms read
// B and C, the immediate forms read B and Imm; A is the destination except
// for stores and out, where it is the value register.
type xop uint8

const (
	xConst  xop = iota // A = Imm
	xMov               // A = B
	xAdd               // A = B + C
	xSub               // A = B - C
	xMul               // A = B * C
	xAnd               // A = B & C
	xOr                // A = B | C
	xXor               // A = B ^ C
	xShl               // A = B << (C & 63)
	xShr               // A = B >> (C & 63), logical
	xNeg               // A = -B
	xNot               // A = ^B
	xAddI              // A = B + Imm
	xMulI              // A = B * Imm
	xAndI              // A = B & Imm
	xOrI               // A = B | Imm
	xXorI              // A = B ^ Imm
	xShlI              // A = B << Imm (Imm already masked to 0..63)
	xShrI              // A = B >> Imm, logical (Imm masked)
	xDivI              // A = B / Imm (Imm != 0)
	xModI              // A = B % Imm (Imm != 0)
	xDiv               // A = B / C, traps on zero
	xMod               // A = B % C, traps on zero
	xLoad              // A = mem[B + Imm]
	xLoadA             // A = mem[Imm]
	xStore             // mem[B + Imm] = A
	xStoreA            // mem[Imm] = A
	xStoreK            // mem[B + Imm] = K
	xOut               // out A
	xMark              // marker Imm
)

// xinstr is one translated instruction: 16 bytes, with K carrying the
// value of a store-immediate.
type xinstr struct {
	op      xop
	a, b, c uint8
	k       int32
	imm     int64
}

// xterm is a translated terminator kind. The two branch families are laid
// out in CondOp order so the kind is base + cond.
type xterm uint8

const (
	xtJump xterm = iota
	xtCall
	xtRet
	xtHalt
	xtBr             // A cond B: xtBr + CondEQ .. xtBr + CondGE
	xtBrI = xtBr + 6 // A cond Imm: xtBrI + CondEQ .. xtBrI + CondGE
)

// xblock is one translated block: its straight-line code and a terminator
// whose block references are slots in Machine.code.
type xblock struct {
	code   []xinstr
	b      *Block // the original block: observer argument and error position
	weight uint64 // b.Weight()
	imm    int64  // xtBrI comparand
	callee *Proc  // xtCall
	args   []uint8
	target int32 // jump/branch-taken slot; callee entry slot for xtCall
	els    int32 // branch-not-taken slot; continuation slot for xtCall
	kind   xterm
	ta, tb uint8 // branch operands; ta is the ret/call-result register
}

// regBit is the liveness bit of register r.
func regBit(r uint8) uint64 { return 1 << (r & 63) }

// xdef reports the register in writes and whether the write is pure: a
// pure instruction has no effect but its write, so it is dead when the
// written register is.
func xdef(in *xinstr) (def uint8, writes, pure bool) {
	switch in.op {
	case xStore, xStoreA, xStoreK, xOut, xMark:
		return 0, false, false
	case xDiv, xMod, xLoad, xLoadA:
		return in.a, true, false
	}
	return in.a, true, true
}

// xuses is the set of registers in reads.
func xuses(in *xinstr) uint64 {
	switch in.op {
	case xConst, xLoadA, xMark:
		return 0
	case xMov, xNeg, xNot, xAddI, xMulI, xAndI, xOrI, xXorI, xShlI, xShrI,
		xDivI, xModI, xLoad, xStoreK:
		return regBit(in.b)
	case xStore:
		return regBit(in.a) | regBit(in.b)
	case xStoreA, xOut:
		return regBit(in.a)
	}
	return regBit(in.b) | regBit(in.c)
}

// regVal is what the translator knows about a register at one point of a
// block: nothing, a constant, or that it holds the same value as another
// register (always a register the translator knows nothing about, so
// copies never chain).
type regVal struct {
	kind uint8 // valUnknown, valConst, valCopy
	src  uint8
	k    int64
}

const (
	valUnknown = iota
	valConst
	valCopy
)

// blockState tracks regVals through one block.
type blockState [NumRegsMax]regVal

// read resolves register r: a constant, or the register holding r's
// value.
func (s *blockState) read(r uint8) (isConst bool, k int64, reg uint8) {
	v := s[r]
	switch v.kind {
	case valConst:
		return true, v.k, r
	case valCopy:
		return false, 0, v.src
	}
	return false, 0, r
}

// write records that r was overwritten with v: r's old value is gone, so
// is every copy of it.
func (s *blockState) write(r uint8, v regVal) {
	for i := range s {
		if s[i].kind == valCopy && s[i].src == r {
			s[i] = regVal{}
		}
	}
	s[r] = v
}

func foldBinary(op Opcode, x, y int64) int64 {
	switch op {
	case OpAdd:
		return x + y
	case OpSub:
		return x - y
	case OpMul:
		return x * y
	case OpAnd:
		return x & y
	case OpOr:
		return x | y
	case OpXor:
		return x ^ y
	case OpShl:
		return x << (uint64(y) & 63)
	case OpShr:
		return int64(uint64(x) >> (uint64(y) & 63))
	case OpDiv:
		return x / y
	default: // OpMod
		return x % y
	}
}

// binReg and binImm map a three-address opcode to its translated register
// form and (where one exists) its immediate-C form.
var (
	binReg = [opMax]xop{OpAdd: xAdd, OpSub: xSub, OpMul: xMul, OpAnd: xAnd,
		OpOr: xOr, OpXor: xXor, OpShl: xShl, OpShr: xShr, OpDiv: xDiv, OpMod: xMod}
	binImm = [opMax]xop{OpAdd: xAddI, OpMul: xMulI, OpAnd: xAndI, OpOr: xOrI,
		OpXor: xXorI, OpShl: xShlI, OpShr: xShrI, OpDiv: xDivI, OpMod: xModI}
)

// unaryOp maps the one-register-operand opcodes to their translations.
var unaryOp = [opMax]xop{OpNeg: xNeg, OpNot: xNot, OpAddI: xAddI, OpMulI: xMulI}

// commutes reports whether an immediate first operand can swap into the
// immediate-C form.
func commutes(op Opcode) bool {
	switch op {
	case OpAdd, OpMul, OpAnd, OpOr, OpXor:
		return true
	}
	return false
}

// flipCond is the condition c with its operands swapped (a c b == b flip a).
var flipCond = [...]CondOp{CondEQ: CondEQ, CondNE: CondNE, CondLT: CondGT,
	CondLE: CondGE, CondGT: CondLT, CondGE: CondLE}

// translator rewrites one program into a Machine's block table.
type translator struct {
	prog  *Program
	base  []int32 // slot of each proc's block 0
	code  []xblock
	instr []xinstr // the one backing array of every block's code
	args  []uint8  // the one backing array of every call's arguments
}

// translate builds the block table for prog and reports its entry slot.
// It panics on structure a validated program cannot have — a register at
// or above its proc's NumRegs, a block or proc index out of range —
// because the translated code reads registers through masked windows
// where such an operand would silently alias a neighbouring frame.
func translate(prog *Program) (code []xblock, entry int32) {
	t := &translator{prog: prog, base: make([]int32, len(prog.Procs))}
	nblocks, ninstr, nargs := 0, 0, 0
	for i, pr := range prog.Procs {
		t.base[i] = int32(nblocks)
		nblocks += len(pr.Blocks)
		for _, b := range pr.Blocks {
			ninstr += len(b.Instr)
			nargs += len(b.Term.Args)
		}
	}
	t.code = make([]xblock, nblocks)
	t.instr = make([]xinstr, 0, ninstr)
	t.args = make([]uint8, 0, nargs)
	for pi, pr := range prog.Procs {
		t.proc(pi, pr)
	}
	return t.code, t.base[prog.Entry]
}

// bad panics with a translation error for pr's block bi.
func bad(pr *Proc, bi int, format string, args ...any) {
	panic(fmt.Sprintf("minivm: cannot translate proc %q block %d: %s (run Program.Validate first)",
		pr.Name, bi, fmt.Sprintf(format, args...)))
}

// proc translates one procedure: rewrite each block's operands, then drop
// dead pure writes under the procedure's liveness.
func (t *translator) proc(pi int, pr *Proc) {
	if pr.NumRegs < 1 || pr.NumRegs > NumRegsMax {
		bad(pr, 0, "NumRegs %d out of range (1..%d)", pr.NumRegs, NumRegsMax)
	}
	if len(pr.Blocks) == 0 {
		bad(pr, 0, "no blocks")
	}
	base := t.base[pi]
	blocks := t.code[base : int(base)+len(pr.Blocks)]
	for bi, b := range pr.Blocks {
		t.block(pi, pr, bi, b, &blocks[bi])
	}
	t.prune(pi, blocks)
}

// block rewrites b's instructions and terminator into xb.
func (t *translator) block(pi int, pr *Proc, bi int, b *Block, xb *xblock) {
	reg := func(r uint8) uint8 {
		if int(r) >= pr.NumRegs {
			bad(pr, bi, "register r%d out of range (NumRegs=%d)", r, pr.NumRegs)
		}
		return r
	}
	slot := func(idx int) int32 {
		if idx < 0 || idx >= len(pr.Blocks) {
			bad(pr, bi, "block index %d out of range", idx)
		}
		return t.base[pi] + int32(idx)
	}
	*xb = xblock{b: b, weight: uint64(b.Weight())}
	start := len(t.instr)
	emit := func(in xinstr) { t.instr = append(t.instr, in) }
	var s blockState
	for _, in := range b.Instr {
		switch in.Op {
		case OpNop:
		case OpConst:
			emit(xinstr{op: xConst, a: reg(in.A), imm: in.Imm})
			s.write(in.A, regVal{kind: valConst, k: in.Imm})
		case OpMov:
			isK, k, src := s.read(reg(in.B))
			reg(in.A)
			switch {
			case isK:
				emit(xinstr{op: xConst, a: in.A, imm: k})
				s.write(in.A, regVal{kind: valConst, k: k})
			case src != in.A: // a copy of A into A changes nothing
				emit(xinstr{op: xMov, a: in.A, b: src})
				s.write(in.A, regVal{kind: valCopy, src: src})
			}
		case OpNeg, OpNot, OpAddI, OpMulI:
			isK, k, src := s.read(reg(in.B))
			reg(in.A)
			if isK {
				var v int64
				switch in.Op {
				case OpNeg:
					v = -k
				case OpNot:
					v = ^k
				case OpAddI:
					v = k + in.Imm
				default:
					v = k * in.Imm
				}
				emit(xinstr{op: xConst, a: in.A, imm: v})
				s.write(in.A, regVal{kind: valConst, k: v})
				continue
			}
			emit(xinstr{op: unaryOp[in.Op], a: in.A, b: src, imm: in.Imm})
			s.write(in.A, regVal{})
		case OpLoad:
			isK, k, src := s.read(reg(in.B))
			reg(in.A)
			if isK {
				emit(xinstr{op: xLoadA, a: in.A, imm: k + in.Imm})
			} else {
				emit(xinstr{op: xLoad, a: in.A, b: src, imm: in.Imm})
			}
			s.write(in.A, regVal{})
		case OpStore:
			aK, av, asrc := s.read(reg(in.A))
			bK, bv, bsrc := s.read(reg(in.B))
			if aK {
				asrc = in.A // the constant still sits in A
			}
			switch {
			case bK:
				emit(xinstr{op: xStoreA, a: asrc, imm: bv + in.Imm})
			case aK && int64(int32(av)) == av:
				emit(xinstr{op: xStoreK, b: bsrc, k: int32(av), imm: in.Imm})
			default:
				emit(xinstr{op: xStore, a: asrc, b: bsrc, imm: in.Imm})
			}
		case OpOut:
			isK, _, src := s.read(reg(in.A))
			if isK {
				src = in.A
			}
			emit(xinstr{op: xOut, a: src})
		case OpMark:
			emit(xinstr{op: xMark, imm: in.Imm})
		case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr, OpDiv, OpMod:
			t.binary(&s, in, reg(in.A), reg(in.B), reg(in.C), emit)
		default:
			bad(pr, bi, "bad opcode %d", in.Op)
		}
	}
	xb.code = t.instr[start:len(t.instr):len(t.instr)]

	tm := &b.Term
	switch tm.Kind {
	case TermJump:
		xb.kind, xb.target = xtJump, slot(tm.Target)
	case TermBranch:
		if tm.Cond > CondGE {
			bad(pr, bi, "bad branch condition %d", tm.Cond)
		}
		aK, av, asrc := s.read(reg(tm.A))
		bK, bv, bsrc := s.read(reg(tm.B))
		switch {
		case bK:
			if aK {
				asrc = tm.A
			}
			xb.kind, xb.ta, xb.imm = xtBrI+xterm(tm.Cond), asrc, bv
		case aK:
			xb.kind, xb.ta, xb.imm = xtBrI+xterm(flipCond[tm.Cond]), bsrc, av
		default:
			xb.kind, xb.ta, xb.tb = xtBr+xterm(tm.Cond), asrc, bsrc
		}
		xb.target, xb.els = slot(tm.Target), slot(tm.Else)
	case TermCall:
		if tm.Callee < 0 || tm.Callee >= len(t.prog.Procs) {
			bad(pr, bi, "call to bad proc index %d", tm.Callee)
		}
		callee := t.prog.Procs[tm.Callee]
		if len(tm.Args) != callee.NumArgs || callee.NumArgs > callee.NumRegs {
			bad(pr, bi, "call to %q with %d args, want %d", callee.Name, len(tm.Args), callee.NumArgs)
		}
		start := len(t.args)
		for _, a := range tm.Args {
			isK, _, src := s.read(reg(a))
			if isK {
				src = a
			}
			t.args = append(t.args, src)
		}
		xb.kind, xb.callee = xtCall, callee
		xb.args = t.args[start:len(t.args):len(t.args)]
		xb.ta = reg(tm.Ret)
		xb.target, xb.els = t.base[tm.Callee], slot(tm.Next)
	case TermRet:
		isK, _, src := s.read(reg(tm.Ret))
		if isK {
			src = tm.Ret
		}
		xb.kind, xb.ta = xtRet, src
	case TermHalt:
		xb.kind = xtHalt
	default:
		bad(pr, bi, "bad terminator kind %d", tm.Kind)
	}
}

// binary rewrites a three-address instruction A = B op C.
func (t *translator) binary(s *blockState, in Instr, a, b, c uint8, emit func(xinstr)) {
	bK, bv, bsrc := s.read(b)
	cK, cv, csrc := s.read(c)
	trap := in.Op == OpDiv || in.Op == OpMod
	switch {
	case bK && cK && !(trap && cv == 0):
		v := foldBinary(in.Op, bv, cv)
		emit(xinstr{op: xConst, a: a, imm: v})
		s.write(a, regVal{kind: valConst, k: v})
		return
	case cK && !bK && !(trap && cv == 0):
		if in.Op == OpSub {
			emit(xinstr{op: xAddI, a: a, b: bsrc, imm: -cv})
		} else {
			imm := cv
			if in.Op == OpShl || in.Op == OpShr {
				imm &= 63
			}
			emit(xinstr{op: binImm[in.Op], a: a, b: bsrc, imm: imm})
		}
	case bK && !cK && commutes(in.Op):
		emit(xinstr{op: binImm[in.Op], a: a, b: csrc, imm: bv})
	default:
		// Register form; an operand known constant is read from the
		// register that holds it.
		if bK {
			bsrc = b
		}
		if cK {
			csrc = c
		}
		emit(xinstr{op: binReg[in.Op], a: a, b: bsrc, c: csrc})
	}
	s.write(a, regVal{})
}

// prune drops the dead pure writes of one procedure's blocks. Liveness is
// computed over the rewritten code, with a pure instruction contributing
// its reads only if its write is live (so chains of dead writes go
// together), iterated to the fixed point over the procedure's CFG.
func (t *translator) prune(pi int, blocks []xblock) {
	liveIn := make([]uint64, len(blocks))
	base := t.base[pi]
	in := func(slot int32) uint64 { return liveIn[slot-base] }
	liveOut := func(xb *xblock) uint64 {
		switch {
		case xb.kind == xtJump:
			return in(xb.target)
		case xb.kind == xtCall:
			live := in(xb.els) &^ regBit(xb.ta)
			for _, a := range xb.args {
				live |= regBit(a)
			}
			return live
		case xb.kind == xtRet:
			return regBit(xb.ta)
		case xb.kind == xtHalt:
			return 0
		case xb.kind >= xtBrI:
			return in(xb.target) | in(xb.els) | regBit(xb.ta)
		default:
			return in(xb.target) | in(xb.els) | regBit(xb.ta) | regBit(xb.tb)
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			if live := sweep(&blocks[i], liveOut(&blocks[i]), false); live != liveIn[i] {
				liveIn[i], changed = live, true
			}
		}
	}
	for i := range blocks {
		sweep(&blocks[i], liveOut(&blocks[i]), true)
	}
}

// sweep walks xb's code backwards from its live-out set and returns its
// live-in set. With drop set it also deletes the dead pure writes,
// packing the survivors, in order, at the end of the block's code.
func sweep(xb *xblock, live uint64, drop bool) uint64 {
	n := len(xb.code)
	for j := len(xb.code) - 1; j >= 0; j-- {
		x := xb.code[j]
		if d, writes, pure := xdef(&x); writes {
			if pure && live&regBit(d) == 0 {
				continue
			}
			live &^= regBit(d)
		}
		live |= xuses(&x)
		if drop {
			n--
			xb.code[n] = x
		}
	}
	if drop {
		xb.code = xb.code[n:]
	}
	return live
}
