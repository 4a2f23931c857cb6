package minivm

import (
	"errors"
	"fmt"

	"phasemark/internal/obs"
)

// Observer watches a program execute. It is the moral equivalent of the
// paper's ATOM instrumentation: block executions (with static weights),
// call/return edges, conditional-branch outcomes, and data memory
// references. All callbacks are synchronous with execution order.
//
// OnBlock fires when a block begins executing; its straight-line
// instructions and terminator then execute before the next event. OnCall
// fires after the caller block's OnBlock (the call terminator is the last
// instruction of that block) and before the callee's entry OnBlock.
type Observer interface {
	// OnBlock is invoked once per dynamic execution of b.
	OnBlock(b *Block)
	// OnCall is invoked when the call terminator of site transfers to callee.
	OnCall(site *Block, callee *Proc)
	// OnReturn is invoked when callee returns to its caller.
	OnReturn(callee *Proc)
	// OnBranch reports the outcome of a conditional branch ending block b.
	OnBranch(b *Block, taken bool)
	// OnMem reports a data memory reference at byte address addr.
	OnMem(addr uint64, write bool)
}

// EventMask is a bit set of the Observer callbacks an observer consumes.
type EventMask uint8

// The observable event kinds.
const (
	EvBlock EventMask = 1 << iota
	EvCall
	EvReturn
	EvBranch
	EvMem

	// EvAll is every event — the conservative default for observers that
	// do not declare a mask.
	EvAll = EvBlock | EvCall | EvReturn | EvBranch | EvMem
)

// EventMasker is optionally implemented by Observers to declare which
// events they actually consume. The machine builds one dispatch list per
// event kind from the masks, so an event nobody consumes costs no observer
// call at all (the paper's §4 concern: instrumentation overhead on events
// the analysis never reads). Observers without the method receive every
// event, exactly as before the masks existed.
//
// The mask must be a static property of the observer: the machine reads it
// once at construction.
type EventMasker interface {
	ObservedEvents() EventMask
}

// MaskOf reports the events o consumes: its declared mask, or EvAll when
// it does not implement EventMasker (nil observers consume nothing).
func MaskOf(o Observer) EventMask {
	if o == nil {
		return 0
	}
	if em, ok := o.(EventMasker); ok {
		return em.ObservedEvents()
	}
	return EvAll
}

// NopObserver implements Observer with no-ops; embed it to observe only
// some events. It deliberately does NOT implement EventMasker: an embedder
// overriding OnBlock alone must still receive OnBlock, so the conservative
// EvAll default applies unless the embedder declares its own mask.
type NopObserver struct{}

// OnBlock implements Observer.
func (NopObserver) OnBlock(*Block) {}

// OnCall implements Observer.
func (NopObserver) OnCall(*Block, *Proc) {}

// OnReturn implements Observer.
func (NopObserver) OnReturn(*Proc) {}

// OnBranch implements Observer.
func (NopObserver) OnBranch(*Block, bool) {}

// OnMem implements Observer.
func (NopObserver) OnMem(uint64, bool) {}

// MultiObserver fans events out to several observers in order. The machine
// flattens it at construction into per-event dispatch lists, so nesting
// MultiObservers or including no-op observers costs nothing at run time;
// calling its methods directly (outside a Machine) fans out dynamically.
type MultiObserver []Observer

// ObservedEvents implements EventMasker as the union of the members'
// masks.
func (m MultiObserver) ObservedEvents() EventMask {
	var ev EventMask
	for _, o := range m {
		ev |= MaskOf(o)
	}
	return ev
}

// OnBlock implements Observer.
func (m MultiObserver) OnBlock(b *Block) {
	for _, o := range m {
		o.OnBlock(b)
	}
}

// OnCall implements Observer.
func (m MultiObserver) OnCall(site *Block, callee *Proc) {
	for _, o := range m {
		o.OnCall(site, callee)
	}
}

// OnReturn implements Observer.
func (m MultiObserver) OnReturn(callee *Proc) {
	for _, o := range m {
		o.OnReturn(callee)
	}
}

// OnBranch implements Observer.
func (m MultiObserver) OnBranch(b *Block, taken bool) {
	for _, o := range m {
		o.OnBranch(b, taken)
	}
}

// OnMem implements Observer.
func (m MultiObserver) OnMem(addr uint64, write bool) {
	for _, o := range m {
		o.OnMem(addr, write)
	}
}

// maskedObserver pairs an observer with an overriding event mask (see
// Masked).
type maskedObserver struct {
	Observer
	mask EventMask
}

// ObservedEvents implements EventMasker with the overriding mask.
func (mo maskedObserver) ObservedEvents() EventMask { return mo.mask }

// Masked restricts o to the given events (intersected with o's own mask).
// Use it when a composite pipeline handles some of an observer's events
// through another path — e.g. folding its block accounting into a fused
// observer — and the machine must not also dispatch those events to o
// directly. NewMachine unwraps the wrapper when building its dispatch
// lists, so masking costs nothing per event.
func Masked(o Observer, mask EventMask) Observer {
	return maskedObserver{Observer: o, mask: mask & MaskOf(o)}
}

// sink is the per-event dispatch list: the common shapes (no observer for
// the event, exactly one) are dedicated fields so the hot loop pays one
// nil check and a direct interface call instead of ranging over a slice;
// two or more observers fall back to the slice.
type sink struct {
	one  Observer   // set iff exactly one observer consumes the event
	many []Observer // set iff two or more do
}

func (s *sink) set(obs []Observer) {
	switch len(obs) {
	case 0:
	case 1:
		s.one = obs[0]
	default:
		s.many = obs
	}
}

// flattenObservers expands nested MultiObservers into a flat ordered list,
// dropping observers whose mask is empty.
func flattenObservers(o Observer, out []Observer) []Observer {
	if o == nil {
		return out
	}
	if m, ok := o.(MultiObserver); ok {
		for _, sub := range m {
			out = flattenObservers(sub, out)
		}
		return out
	}
	if MaskOf(o) == 0 {
		return out
	}
	return append(out, o)
}

// Runtime errors surfaced by the interpreter.
var (
	ErrDivByZero     = errors.New("minivm: division by zero")
	ErrMemFault      = errors.New("minivm: memory access out of range")
	ErrStackOverflow = errors.New("minivm: call stack overflow")
	ErrInstrLimit    = errors.New("minivm: instruction limit exceeded")
)

// WordBytes is the byte size of one memory word; OnMem addresses are word
// addresses scaled by WordBytes so cache simulators see byte addresses.
const WordBytes = 8

// DefaultMaxInstrs bounds runaway executions (inputs are sized well below
// this in practice).
const DefaultMaxInstrs = 2_000_000_000

// DefaultMaxDepth bounds the call stack.
const DefaultMaxDepth = 100_000

// Execution metrics, aggregated across every machine in the process. The
// interpreter counts events in plain per-machine fields (the inner loop is
// single-goroutine) and flushes the deltas once per Run, so the hot loop
// pays no atomic operations.
var (
	obsRuns     = obs.NewCounter("minivm.runs")
	obsInstrs   = obs.NewCounter("minivm.instructions")
	obsBranches = obs.NewCounter("minivm.branches")
	obsCalls    = obs.NewCounter("minivm.calls")
	obsMemRefs  = obs.NewCounter("minivm.mem_refs")
	obsMarks    = obs.NewCounter("minivm.marker_fires")
	obsRunLen   = obs.NewHist("minivm.run_instructions")
)

// Machine executes a validated Program. The zero value is not usable; use
// NewMachine.
type Machine struct {
	prog *Program
	mem  []int64

	// code is the program's translation (translate.go), one entry per
	// block, built once by NewMachine; entry is the entry proc's block 0.
	code  []xblock
	entry int32

	// Per-event observer dispatch, built once from the observer passed to
	// NewMachine (see EventMasker). An empty sink means the event is not
	// emitted at all.
	onBlock  sink
	onCall   sink
	onRet    sink
	onBranch sink
	onMem    sink

	// regs is the register arena: each frame owns the window
	// [frame.base, frame.base+frame.proc.NumRegs). Calls extend it and returns
	// truncate it, so the steady state allocates nothing. Its capacity
	// always exceeds its length by NumRegsMax words, so every frame can
	// be read through a whole *[NumRegsMax]int64 window.
	regs   []int64
	frames []frame

	out       []int64
	instrs    uint64
	branches  uint64
	calls     uint64
	memRefs   uint64
	marks     uint64
	flushed   [5]uint64 // instrs/branches/calls/memRefs/marks already flushed
	MaxInstrs uint64
	MaxDepth  int
	// MarkFunc, when set, receives the ID of every OpMark instruction
	// executed — the runtime hook behind statically inserted phase
	// markers (core.Instrument).
	MarkFunc func(id int64)
}

// NewMachine builds a machine for prog reporting to observer (nil for
// none). Two things are resolved here, once: the program's translation
// into the form Run executes (see translate.go; it panics if prog has a
// register or block index Validate would reject), and the observer's
// per-event dispatch — nested MultiObservers are flattened and every
// event kind gets its own direct call list, filtered by the observers'
// EventMasks.
func NewMachine(prog *Program, observer Observer) *Machine {
	m := &Machine{
		prog:      prog,
		mem:       make([]int64, prog.GlobalWords),
		MaxInstrs: DefaultMaxInstrs,
		MaxDepth:  DefaultMaxDepth,
	}
	m.code, m.entry = translate(prog)
	flat := flattenObservers(observer, nil)
	var block, call, ret, branch, mem []Observer
	for _, o := range flat {
		ev := MaskOf(o)
		if mo, ok := o.(maskedObserver); ok {
			o = mo.Observer // dispatch straight to the wrapped observer
		}
		if ev&EvBlock != 0 {
			block = append(block, o)
		}
		if ev&EvCall != 0 {
			call = append(call, o)
		}
		if ev&EvReturn != 0 {
			ret = append(ret, o)
		}
		if ev&EvBranch != 0 {
			branch = append(branch, o)
		}
		if ev&EvMem != 0 {
			mem = append(mem, o)
		}
	}
	m.onBlock.set(block)
	m.onCall.set(call)
	m.onRet.set(ret)
	m.onBranch.set(branch)
	m.onMem.set(mem)
	return m
}

// Instructions reports the number of dynamic instructions executed so far
// (block weights summed over executed blocks).
func (m *Machine) Instructions() uint64 { return m.instrs }

// Branches reports the number of conditional branches executed so far.
func (m *Machine) Branches() uint64 { return m.branches }

// Calls reports the number of procedure calls executed so far.
func (m *Machine) Calls() uint64 { return m.calls }

// MemRefs reports the number of data memory references executed so far.
func (m *Machine) MemRefs() uint64 { return m.memRefs }

// flushObs folds the counts accumulated since the previous flush into the
// process-wide metrics. Run defers it, so truncated (errored) executions
// are still accounted.
func (m *Machine) flushObs() {
	obsRuns.Inc()
	obsRunLen.Observe(m.instrs - m.flushed[0])
	obsInstrs.Add(m.instrs - m.flushed[0])
	obsBranches.Add(m.branches - m.flushed[1])
	obsCalls.Add(m.calls - m.flushed[2])
	obsMemRefs.Add(m.memRefs - m.flushed[3])
	obsMarks.Add(m.marks - m.flushed[4])
	m.flushed = [5]uint64{m.instrs, m.branches, m.calls, m.memRefs, m.marks}
}

// Output returns the values emitted by OpOut, in order.
func (m *Machine) Output() []int64 { return m.out }

// Mem exposes the data memory (for tests).
func (m *Machine) Mem() []int64 { return m.mem }

// Reset returns the machine to its pre-Run state — data memory zeroed,
// output truncated, event counters cleared — while keeping every allocated
// buffer (memory image, register arena, frame stack, output capacity), so
// a warmed machine re-runs the program without heap allocations. Observer
// state is NOT touched: callers reusing stateful observers across runs
// must reset those separately. Must not be called while Run is executing.
func (m *Machine) Reset() {
	clear(m.mem)
	m.out = m.out[:0]
	m.instrs, m.branches, m.calls, m.memRefs, m.marks = 0, 0, 0, 0, 0
	m.flushed = [5]uint64{}
}

type frame struct {
	proc    *Proc
	base    int   // register window start in Machine.regs
	retSlot int32 // caller block (a Machine.code slot) to resume at
	retReg  uint8 // caller register receiving the return value
}

// pushFrame extends the register arena by a zeroed window of n registers,
// keeping NumRegsMax words of capacity beyond it.
func pushFrame(s []int64, n int) []int64 {
	l := len(s)
	if l+n+NumRegsMax <= cap(s) {
		s = s[:l+n]
		clear(s[l:])
		return s
	}
	ns := make([]int64, l+n, 2*(l+n)+NumRegsMax+64)
	copy(ns, s)
	return ns
}

// window is the register file of the frame based at base. Operands are
// masked with &63 when indexing it, so reads and writes need no bounds
// check; translation has already rejected any register at or above the
// proc's NumRegs.
func window(regs []int64, base int) *[NumRegsMax]int64 {
	return (*[NumRegsMax]int64)(regs[base : base+NumRegsMax])
}

// Run executes the program's entry procedure with the given arguments
// (copied into the entry proc's first registers). It returns the entry
// procedure's return value (0 if it halts without returning).
//
// The loop dispatches the translation NewMachine built, and emits observer
// events through the per-event sinks resolved there: no event nobody
// consumes is dispatched, a single consumer is called directly, and only
// genuinely shared events range over a list.
func (m *Machine) Run(args ...int64) (int64, error) {
	entry := m.prog.EntryProc()
	if len(args) != entry.NumArgs {
		return 0, fmt.Errorf("minivm: entry %q wants %d args, got %d",
			entry.Name, entry.NumArgs, len(args))
	}
	defer m.flushObs()
	m.regs = pushFrame(m.regs[:0], entry.NumRegs)
	copy(m.regs, args)
	m.frames = append(m.frames[:0], frame{proc: entry})
	fr := &m.frames[0]
	r := window(m.regs, 0)
	mem, blocks := m.mem, m.code
	slot := m.entry

	for {
		xb := &blocks[slot]
		b := xb.b
		if o := m.onBlock.one; o != nil {
			o.OnBlock(b)
		} else if m.onBlock.many != nil {
			for _, o := range m.onBlock.many {
				o.OnBlock(b)
			}
		}
		m.instrs += xb.weight
		if m.instrs > m.MaxInstrs {
			return 0, fmt.Errorf("%w (limit %d)", ErrInstrLimit, m.MaxInstrs)
		}
		code := xb.code
		for i := range code {
			in := &code[i]
			switch in.op {
			case xConst:
				r[in.a&63] = in.imm
			case xMov:
				r[in.a&63] = r[in.b&63]
			case xAdd:
				r[in.a&63] = r[in.b&63] + r[in.c&63]
			case xSub:
				r[in.a&63] = r[in.b&63] - r[in.c&63]
			case xMul:
				r[in.a&63] = r[in.b&63] * r[in.c&63]
			case xAnd:
				r[in.a&63] = r[in.b&63] & r[in.c&63]
			case xOr:
				r[in.a&63] = r[in.b&63] | r[in.c&63]
			case xXor:
				r[in.a&63] = r[in.b&63] ^ r[in.c&63]
			case xShl:
				r[in.a&63] = r[in.b&63] << (uint64(r[in.c&63]) & 63)
			case xShr:
				r[in.a&63] = int64(uint64(r[in.b&63]) >> (uint64(r[in.c&63]) & 63))
			case xNeg:
				r[in.a&63] = -r[in.b&63]
			case xNot:
				r[in.a&63] = ^r[in.b&63]
			case xAddI:
				r[in.a&63] = r[in.b&63] + in.imm
			case xMulI:
				r[in.a&63] = r[in.b&63] * in.imm
			case xAndI:
				r[in.a&63] = r[in.b&63] & in.imm
			case xOrI:
				r[in.a&63] = r[in.b&63] | in.imm
			case xXorI:
				r[in.a&63] = r[in.b&63] ^ in.imm
			case xShlI:
				r[in.a&63] = r[in.b&63] << uint64(in.imm)
			case xShrI:
				r[in.a&63] = int64(uint64(r[in.b&63]) >> uint64(in.imm))
			case xDivI:
				r[in.a&63] = r[in.b&63] / in.imm
			case xModI:
				r[in.a&63] = r[in.b&63] % in.imm
			case xDiv:
				d := r[in.c&63]
				if d == 0 {
					return 0, fmt.Errorf("%w in %s b%d", ErrDivByZero, fr.proc.Name, b.Index)
				}
				r[in.a&63] = r[in.b&63] / d
			case xMod:
				d := r[in.c&63]
				if d == 0 {
					return 0, fmt.Errorf("%w in %s b%d", ErrDivByZero, fr.proc.Name, b.Index)
				}
				r[in.a&63] = r[in.b&63] % d
			case xLoad, xLoadA:
				addr := in.imm
				if in.op == xLoad {
					addr += r[in.b&63]
				}
				if uint64(addr) >= uint64(len(mem)) {
					return 0, fmt.Errorf("%w: load word %d in %s b%d", ErrMemFault, addr, fr.proc.Name, b.Index)
				}
				m.memRefs++
				if o := m.onMem.one; o != nil {
					o.OnMem(uint64(addr)*WordBytes, false)
				} else if m.onMem.many != nil {
					for _, o := range m.onMem.many {
						o.OnMem(uint64(addr)*WordBytes, false)
					}
				}
				r[in.a&63] = mem[addr]
			case xStore, xStoreA, xStoreK:
				addr, v := in.imm, int64(in.k)
				if in.op != xStoreA {
					addr += r[in.b&63]
				}
				if in.op != xStoreK {
					v = r[in.a&63]
				}
				if uint64(addr) >= uint64(len(mem)) {
					return 0, fmt.Errorf("%w: store word %d in %s b%d", ErrMemFault, addr, fr.proc.Name, b.Index)
				}
				m.memRefs++
				if o := m.onMem.one; o != nil {
					o.OnMem(uint64(addr)*WordBytes, true)
				} else if m.onMem.many != nil {
					for _, o := range m.onMem.many {
						o.OnMem(uint64(addr)*WordBytes, true)
					}
				}
				mem[addr] = v
			case xOut:
				m.out = append(m.out, r[in.a&63])
			case xMark:
				m.marks++
				if m.MarkFunc != nil {
					m.MarkFunc(in.imm)
				}
			}
		}

		switch k := xb.kind; k {
		case xtJump:
			slot = xb.target
		case xtCall:
			m.calls++
			if len(m.frames) >= m.MaxDepth {
				return 0, ErrStackOverflow
			}
			callee := xb.callee
			base := len(m.regs)
			m.regs = pushFrame(m.regs, callee.NumRegs)
			// The arena may have been reallocated by the push: re-derive
			// the caller window before copying arguments.
			caller := window(m.regs, fr.base)
			for i, a := range xb.args {
				m.regs[base+i] = caller[a&63]
			}
			if o := m.onCall.one; o != nil {
				o.OnCall(b, callee)
			} else if m.onCall.many != nil {
				for _, o := range m.onCall.many {
					o.OnCall(b, callee)
				}
			}
			m.frames = append(m.frames, frame{proc: callee, base: base, retSlot: xb.els, retReg: xb.ta})
			fr = &m.frames[len(m.frames)-1]
			r = window(m.regs, base)
			slot = xb.target
		case xtRet:
			rv := r[xb.ta&63]
			if o := m.onRet.one; o != nil {
				o.OnReturn(fr.proc)
			} else if m.onRet.many != nil {
				for _, o := range m.onRet.many {
					o.OnReturn(fr.proc)
				}
			}
			if len(m.frames) == 1 {
				return rv, nil
			}
			retSlot, retReg := fr.retSlot, fr.retReg
			m.regs = m.regs[:fr.base]
			m.frames = m.frames[:len(m.frames)-1]
			fr = &m.frames[len(m.frames)-1]
			r = window(m.regs, fr.base)
			r[retReg&63] = rv
			slot = retSlot
		case xtHalt:
			// Unwind observers for any active frames so profilers see a
			// balanced call/return stream.
			if m.onRet.one != nil || m.onRet.many != nil {
				for i := len(m.frames) - 1; i >= 0; i-- {
					if o := m.onRet.one; o != nil {
						o.OnReturn(m.frames[i].proc)
					} else {
						for _, o := range m.onRet.many {
							o.OnReturn(m.frames[i].proc)
						}
					}
				}
			}
			return 0, nil
		default:
			m.branches++
			var taken bool
			x := r[xb.ta&63]
			switch k {
			case xtBr + xterm(CondEQ):
				taken = x == r[xb.tb&63]
			case xtBr + xterm(CondNE):
				taken = x != r[xb.tb&63]
			case xtBr + xterm(CondLT):
				taken = x < r[xb.tb&63]
			case xtBr + xterm(CondLE):
				taken = x <= r[xb.tb&63]
			case xtBr + xterm(CondGT):
				taken = x > r[xb.tb&63]
			case xtBr + xterm(CondGE):
				taken = x >= r[xb.tb&63]
			case xtBrI + xterm(CondEQ):
				taken = x == xb.imm
			case xtBrI + xterm(CondNE):
				taken = x != xb.imm
			case xtBrI + xterm(CondLT):
				taken = x < xb.imm
			case xtBrI + xterm(CondLE):
				taken = x <= xb.imm
			case xtBrI + xterm(CondGT):
				taken = x > xb.imm
			default:
				taken = x >= xb.imm
			}
			if o := m.onBranch.one; o != nil {
				o.OnBranch(b, taken)
			} else if m.onBranch.many != nil {
				for _, o := range m.onBranch.many {
					o.OnBranch(b, taken)
				}
			}
			if taken {
				slot = xb.target
			} else {
				slot = xb.els
			}
		}
	}
}
