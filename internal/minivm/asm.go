package minivm

import (
	"fmt"
	"strconv"
	"strings"
)

// Textual assembly for minivm programs ("clasm"). Programs round-trip
// through Print and ParseAsm exactly, so analysis inputs (the "binaries")
// can be stored on disk, diffed, and reloaded by the CLI tools.
//
// Format:
//
//	program entry=main globals=128
//
//	proc main args=1 regs=5 line=3 {
//	b0: line=4 col=2
//	  const r1, 0
//	  jump b1
//	b1: line=5
//	  br r2 < r0, b2, b3
//	b2: line=5
//	  call r3, work(r1, r2), b3 line=6 col=9
//	b3: line=7
//	  ret r1
//	}

// Print renders the whole program in parseable assembly.
func Print(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program entry=%s globals=%d\n", p.EntryProc().Name, p.GlobalWords)
	for _, pr := range p.Procs {
		fmt.Fprintf(&sb, "\nproc %s args=%d regs=%d line=%d {\n",
			pr.Name, pr.NumArgs, pr.NumRegs, pr.Line)
		for _, b := range pr.Blocks {
			fmt.Fprintf(&sb, "b%d: line=%d col=%d\n", b.Index, b.Line, b.Col)
			for _, in := range b.Instr {
				fmt.Fprintf(&sb, "  %s\n", in)
			}
			sb.WriteString("  " + printTerm(p, b.Term) + "\n")
		}
		sb.WriteString("}\n")
	}
	return sb.String()
}

func printTerm(p *Program, t Term) string {
	switch t.Kind {
	case TermCall:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = fmt.Sprintf("r%d", a)
		}
		return fmt.Sprintf("call r%d, %s(%s), b%d line=%d col=%d",
			t.Ret, p.Procs[t.Callee].Name, strings.Join(args, ", "), t.Next, t.Line, t.Col)
	default:
		return t.String()
	}
}

// asmParser holds the line-oriented parse state.
type asmParser struct {
	lines []string
	pos   int
}

func (ap *asmParser) errf(format string, args ...any) error {
	return fmt.Errorf("clasm line %d: %s", ap.pos, fmt.Sprintf(format, args...))
}

func (ap *asmParser) next() (string, bool) {
	for ap.pos < len(ap.lines) {
		l := strings.TrimSpace(ap.lines[ap.pos])
		ap.pos++
		if l == "" || strings.HasPrefix(l, "//") || strings.HasPrefix(l, "#") {
			continue
		}
		return l, true
	}
	return "", false
}

// kvInt extracts `key=<int>` from a field list.
func kvInt(fields map[string]string, key string) (int, error) {
	v, ok := fields[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	return strconv.Atoi(v)
}

func parseFields(parts []string) map[string]string {
	m := map[string]string{}
	for _, p := range parts {
		if i := strings.IndexByte(p, '='); i > 0 {
			m[p[:i]] = p[i+1:]
		}
	}
	return m
}

// ParseAsm parses assembly text produced by Print (or hand-written in the
// same format) back into a validated Program.
func ParseAsm(src string) (*Program, error) {
	ap := &asmParser{lines: strings.Split(src, "\n")}
	head, ok := ap.next()
	if !ok || !strings.HasPrefix(head, "program ") {
		return nil, ap.errf("expected `program` header")
	}
	hf := parseFields(strings.Fields(head))
	entryName, ok := hf["entry"]
	if !ok {
		return nil, ap.errf("program header missing entry=")
	}
	globals, err := kvInt(hf, "globals")
	if err != nil {
		return nil, ap.errf("program header: %v", err)
	}

	p := &Program{GlobalWords: globals}
	type pendingCall struct {
		proc  *Proc
		block int
		name  string
	}
	var pending []pendingCall

	for {
		l, ok := ap.next()
		if !ok {
			break
		}
		if !strings.HasPrefix(l, "proc ") || !strings.HasSuffix(l, "{") {
			return nil, ap.errf("expected `proc ... {`, got %q", l)
		}
		fs := strings.Fields(strings.TrimSuffix(strings.TrimPrefix(l, "proc "), "{"))
		if len(fs) < 1 {
			return nil, ap.errf("proc missing name")
		}
		pf := parseFields(fs[1:])
		pr := &Proc{Name: fs[0], ID: len(p.Procs)}
		if pr.NumArgs, err = kvInt(pf, "args"); err != nil {
			return nil, ap.errf("proc %s: %v", pr.Name, err)
		}
		if pr.NumRegs, err = kvInt(pf, "regs"); err != nil {
			return nil, ap.errf("proc %s: %v", pr.Name, err)
		}
		pr.Line, _ = kvInt(pf, "line")
		p.Procs = append(p.Procs, pr)

		var cur *Block
		for {
			l, ok := ap.next()
			if !ok {
				return nil, ap.errf("unexpected EOF in proc %s", pr.Name)
			}
			if l == "}" {
				break
			}
			if strings.HasPrefix(l, "b") && strings.Contains(l, ":") {
				ci := strings.IndexByte(l, ':')
				idx, err := strconv.Atoi(l[1:ci])
				if err != nil || idx != len(pr.Blocks) {
					return nil, ap.errf("bad or out-of-order block label %q", l[:ci+1])
				}
				bf := parseFields(strings.Fields(l[ci+1:]))
				cur = &Block{Index: idx, Proc: pr}
				cur.Line, _ = kvInt(bf, "line")
				cur.Col, _ = kvInt(bf, "col")
				pr.Blocks = append(pr.Blocks, cur)
				continue
			}
			if cur == nil {
				return nil, ap.errf("instruction before block label: %q", l)
			}
			done, callee, err := parseLine(ap, cur, l)
			if err != nil {
				return nil, err
			}
			if callee != "" {
				pending = append(pending, pendingCall{proc: pr, block: cur.Index, name: callee})
			}
			_ = done
		}
	}

	// Resolve call targets and the entry by name.
	byName := map[string]int{}
	for i, pr := range p.Procs {
		if _, dup := byName[pr.Name]; dup {
			return nil, fmt.Errorf("clasm: duplicate proc %q", pr.Name)
		}
		byName[pr.Name] = i
	}
	for _, pc := range pending {
		idx, ok := byName[pc.name]
		if !ok {
			return nil, fmt.Errorf("clasm: call to unknown proc %q", pc.name)
		}
		pc.proc.Blocks[pc.block].Term.Callee = idx
	}
	entry, ok := byName[entryName]
	if !ok {
		return nil, fmt.Errorf("clasm: entry proc %q not defined", entryName)
	}
	p.Entry = entry
	p.RenumberBlocks()
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("clasm: %w", err)
	}
	return p, nil
}

var condByName = map[string]CondOp{
	"==": CondEQ, "!=": CondNE, "<": CondLT, "<=": CondLE, ">": CondGT, ">=": CondGE,
}

func reg(tok string) (uint8, error) {
	if !strings.HasPrefix(tok, "r") {
		return 0, fmt.Errorf("expected register, got %q", tok)
	}
	v, err := strconv.Atoi(tok[1:])
	if err != nil || v < 0 || v >= NumRegsMax {
		return 0, fmt.Errorf("bad register %q", tok)
	}
	return uint8(v), nil
}

func blockIdx(tok string) (int, error) {
	if !strings.HasPrefix(tok, "b") {
		return 0, fmt.Errorf("expected block ref, got %q", tok)
	}
	return strconv.Atoi(tok[1:])
}

// parseLine parses one instruction or terminator into cur. It returns the
// callee name for call terminators (resolved later).
func parseLine(ap *asmParser, cur *Block, l string) (isTerm bool, callee string, err error) {
	// Tokenize: mnemonic then comma-separated operands; brackets kept.
	sp := strings.IndexByte(l, ' ')
	mnem := l
	rest := ""
	if sp > 0 {
		mnem, rest = l[:sp], strings.TrimSpace(l[sp+1:])
	}
	ops := splitOperands(rest)

	fail := func(format string, args ...any) (bool, string, error) {
		return false, "", ap.errf("%s: %s", mnem, fmt.Sprintf(format, args...))
	}
	emit := func(in Instr) (bool, string, error) {
		cur.Instr = append(cur.Instr, in)
		return false, "", nil
	}
	r := func(i int) uint8 {
		if err != nil || i >= len(ops) {
			if err == nil {
				err = fmt.Errorf("missing operand %d", i)
			}
			return 0
		}
		var v uint8
		v, err = reg(ops[i])
		return v
	}
	imm := func(i int) int64 {
		if err != nil || i >= len(ops) {
			if err == nil {
				err = fmt.Errorf("missing operand %d", i)
			}
			return 0
		}
		var v int64
		v, err = strconv.ParseInt(ops[i], 10, 64)
		return v
	}

	switch mnem {
	case "nop":
		return emit(Instr{Op: OpNop})
	case "const":
		in := Instr{Op: OpConst, A: r(0), Imm: imm(1)}
		if err != nil {
			return fail("%v", err)
		}
		return emit(in)
	case "mov", "neg", "not":
		op := map[string]Opcode{"mov": OpMov, "neg": OpNeg, "not": OpNot}[mnem]
		in := Instr{Op: op, A: r(0), B: r(1)}
		if err != nil {
			return fail("%v", err)
		}
		return emit(in)
	case "addi", "muli":
		op := OpAddI
		if mnem == "muli" {
			op = OpMulI
		}
		in := Instr{Op: op, A: r(0), B: r(1), Imm: imm(2)}
		if err != nil {
			return fail("%v", err)
		}
		return emit(in)
	case "add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr":
		op := map[string]Opcode{
			"add": OpAdd, "sub": OpSub, "mul": OpMul, "div": OpDiv, "mod": OpMod,
			"and": OpAnd, "or": OpOr, "xor": OpXor, "shl": OpShl, "shr": OpShr,
		}[mnem]
		in := Instr{Op: op, A: r(0), B: r(1), C: r(2)}
		if err != nil {
			return fail("%v", err)
		}
		return emit(in)
	case "load":
		// load rA, [rB+imm]
		if len(ops) != 2 {
			return fail("want 2 operands")
		}
		b, off, perr := parseMemRef(ops[1])
		if perr != nil {
			return fail("%v", perr)
		}
		in := Instr{Op: OpLoad, A: r(0), B: b, Imm: off}
		if err != nil {
			return fail("%v", err)
		}
		return emit(in)
	case "store":
		// store [rB+imm], rA
		if len(ops) != 2 {
			return fail("want 2 operands")
		}
		b, off, perr := parseMemRef(ops[0])
		if perr != nil {
			return fail("%v", perr)
		}
		a, perr := reg(ops[1])
		if perr != nil {
			return fail("%v", perr)
		}
		return emit(Instr{Op: OpStore, A: a, B: b, Imm: off})
	case "mark":
		in := Instr{Op: OpMark, Imm: imm(0)}
		if err != nil {
			return fail("%v", err)
		}
		return emit(in)
	case "out":
		in := Instr{Op: OpOut, A: r(0)}
		if err != nil {
			return fail("%v", err)
		}
		return emit(in)
	case "jump":
		if len(ops) != 1 {
			return fail("want 1 operand")
		}
		tgt, perr := blockIdx(ops[0])
		if perr != nil {
			return fail("%v", perr)
		}
		cur.Term = Term{Kind: TermJump, Target: tgt}
		return true, "", nil
	case "br":
		// br rA <op> rB, bT, bE
		f := strings.Fields(rest)
		if len(f) < 5 {
			return fail("malformed branch %q", rest)
		}
		a, perr := reg(strings.TrimSuffix(f[0], ","))
		if perr != nil {
			return fail("%v", perr)
		}
		cond, ok := condByName[f[1]]
		if !ok {
			return fail("bad condition %q", f[1])
		}
		b, perr := reg(strings.TrimSuffix(f[2], ","))
		if perr != nil {
			return fail("%v", perr)
		}
		tgt, perr := blockIdx(strings.TrimSuffix(f[3], ","))
		if perr != nil {
			return fail("%v", perr)
		}
		els, perr := blockIdx(strings.TrimSuffix(f[4], ","))
		if perr != nil {
			return fail("%v", perr)
		}
		cur.Term = Term{Kind: TermBranch, Cond: cond, A: a, B: b, Target: tgt, Else: els}
		return true, "", nil
	case "ret":
		if len(ops) != 1 {
			return fail("want 1 operand")
		}
		rr, perr := reg(ops[0])
		if perr != nil {
			return fail("%v", perr)
		}
		cur.Term = Term{Kind: TermRet, Ret: rr}
		return true, "", nil
	case "halt":
		cur.Term = Term{Kind: TermHalt}
		return true, "", nil
	case "call":
		// call rRet, name(rA, rB), bNext line=L col=C
		return parseCall(ap, cur, rest)
	default:
		return fail("unknown mnemonic")
	}
}

func parseCall(ap *asmParser, cur *Block, rest string) (bool, string, error) {
	open := strings.IndexByte(rest, '(')
	close := strings.IndexByte(rest, ')')
	if open < 0 || close < open {
		return false, "", ap.errf("malformed call %q", rest)
	}
	pre := strings.Split(strings.TrimSpace(rest[:open]), ",")
	if len(pre) != 2 {
		return false, "", ap.errf("call needs `rRet, name(...)`")
	}
	ret, err := reg(strings.TrimSpace(pre[0]))
	if err != nil {
		return false, "", ap.errf("call: %v", err)
	}
	name := strings.TrimSpace(pre[1])
	var args []uint8
	inner := strings.TrimSpace(rest[open+1 : close])
	if inner != "" {
		for _, a := range strings.Split(inner, ",") {
			r, err := reg(strings.TrimSpace(a))
			if err != nil {
				return false, "", ap.errf("call arg: %v", err)
			}
			args = append(args, r)
		}
	}
	post := strings.Fields(strings.TrimPrefix(strings.TrimSpace(rest[close+1:]), ","))
	if len(post) < 1 {
		return false, "", ap.errf("call missing continuation block")
	}
	next, err := blockIdx(post[0])
	if err != nil {
		return false, "", ap.errf("call: %v", err)
	}
	fields := parseFields(post[1:])
	line, _ := kvInt(fields, "line")
	col, _ := kvInt(fields, "col")
	cur.Term = Term{Kind: TermCall, Ret: ret, Args: args, Next: next, Line: line, Col: col}
	return true, name, nil
}

func parseMemRef(tok string) (base uint8, off int64, err error) {
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return 0, 0, fmt.Errorf("expected [rB+imm], got %q", tok)
	}
	inner := tok[1 : len(tok)-1]
	plus := strings.IndexByte(inner, '+')
	if plus < 0 {
		base, err = reg(inner)
		return base, 0, err
	}
	if base, err = reg(inner[:plus]); err != nil {
		return 0, 0, err
	}
	off, err = strconv.ParseInt(inner[plus+1:], 10, 64)
	return base, off, err
}

// splitOperands splits "r1, [r2+8], -3" into operands, respecting
// brackets.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}
