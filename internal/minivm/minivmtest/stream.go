package minivmtest

import (
	"errors"
	"fmt"
	"slices"

	"phasemark/internal/minivm"
)

// Stream is an observer that folds the ordered stream of every block,
// call, return, branch, memory and marker event into a running hash, so
// two runs of any length compare in constant memory. Hook Mark into the
// machine's MarkFunc to interleave marker firings with the other events.
type Stream struct {
	Hash   uint64
	Events uint64
}

// NewStream returns an empty stream.
func NewStream() *Stream { return &Stream{Hash: 14695981039346656037} }

// mix folds one word into the hash (a multiply-xorshift step: order
// sensitive, and cheap enough to run on every event of a workload).
func (s *Stream) mix(v uint64) {
	h := (s.Hash ^ v) * 0x9e3779b97f4a7c15
	s.Hash = h ^ h>>29
}

func (s *Stream) event(kind uint64) {
	s.Events++
	s.mix(kind)
}

// OnBlock implements minivm.Observer.
func (s *Stream) OnBlock(b *minivm.Block) { s.event(1); s.mix(uint64(b.ID)) }

// OnCall implements minivm.Observer.
func (s *Stream) OnCall(site *minivm.Block, callee *minivm.Proc) {
	s.event(2)
	s.mix(uint64(site.ID))
	s.mix(uint64(callee.ID))
}

// OnReturn implements minivm.Observer.
func (s *Stream) OnReturn(callee *minivm.Proc) { s.event(3); s.mix(uint64(callee.ID)) }

// OnBranch implements minivm.Observer.
func (s *Stream) OnBranch(b *minivm.Block, taken bool) {
	s.event(4)
	s.mix(uint64(b.ID))
	if taken {
		s.mix(1)
	} else {
		s.mix(0)
	}
}

// OnMem implements minivm.Observer.
func (s *Stream) OnMem(addr uint64, write bool) {
	s.event(5)
	s.mix(addr)
	if write {
		s.mix(1)
	} else {
		s.mix(0)
	}
}

// Mark records a marker firing; use it as a machine's MarkFunc.
func (s *Stream) Mark(id int64) { s.event(6); s.mix(uint64(id)) }

// Limits bounds one run; zero fields keep minivm's defaults.
type Limits struct {
	MaxInstrs uint64
	MaxDepth  int
}

// Outcome is everything observable about one run.
type Outcome struct {
	Stream                                 Stream
	Instructions, Branches, Calls, MemRefs uint64
	Output                                 []int64
	MemHash                                uint64
	Ret                                    int64
	Err                                    error
}

func memHash(mem []int64) uint64 {
	s := NewStream()
	for _, v := range mem {
		s.mix(uint64(v))
	}
	return s.Hash
}

// RunMachine runs prog on a production minivm.Machine.
func RunMachine(prog *minivm.Program, lim Limits, args ...int64) Outcome {
	s := NewStream()
	m := minivm.NewMachine(prog, s)
	m.MarkFunc = s.Mark
	if lim.MaxInstrs != 0 {
		m.MaxInstrs = lim.MaxInstrs
	}
	if lim.MaxDepth != 0 {
		m.MaxDepth = lim.MaxDepth
	}
	rv, err := m.Run(args...)
	return outcome(s, m, rv, err)
}

// RunRef runs prog on the reference interpreter.
func RunRef(prog *minivm.Program, lim Limits, args ...int64) Outcome {
	s := NewStream()
	m := NewRef(prog, s)
	m.MarkFunc = s.Mark
	if lim.MaxInstrs != 0 {
		m.MaxInstrs = lim.MaxInstrs
	}
	if lim.MaxDepth != 0 {
		m.MaxDepth = lim.MaxDepth
	}
	rv, err := m.Run(args...)
	return outcome(s, m, rv, err)
}

// ran is the state both interpreters expose after a run.
type ran interface {
	Instructions() uint64
	Branches() uint64
	Calls() uint64
	MemRefs() uint64
	Output() []int64
	Mem() []int64
}

func outcome(s *Stream, m ran, rv int64, err error) Outcome {
	return Outcome{Stream: *s, Instructions: m.Instructions(), Branches: m.Branches(),
		Calls: m.Calls(), MemRefs: m.MemRefs(), Output: m.Output(), MemHash: memHash(m.Mem()),
		Ret: rv, Err: err}
}

// sentinels are the errors a run can match with errors.Is.
var sentinels = []error{minivm.ErrDivByZero, minivm.ErrMemFault,
	minivm.ErrStackOverflow, minivm.ErrInstrLimit}

// Diff describes how got differs from want, or returns "" when the two
// runs are observably identical.
func Diff(got, want Outcome) string {
	switch {
	case got.Stream != want.Stream:
		return fmt.Sprintf("event stream %d events hash %x, want %d events hash %x",
			got.Stream.Events, got.Stream.Hash, want.Stream.Events, want.Stream.Hash)
	case got.Instructions != want.Instructions || got.Branches != want.Branches ||
		got.Calls != want.Calls || got.MemRefs != want.MemRefs:
		return fmt.Sprintf("counters instrs/branches/calls/memrefs %d/%d/%d/%d, want %d/%d/%d/%d",
			got.Instructions, got.Branches, got.Calls, got.MemRefs,
			want.Instructions, want.Branches, want.Calls, want.MemRefs)
	case !slices.Equal(got.Output, want.Output):
		return fmt.Sprintf("output %v, want %v", got.Output, want.Output)
	case got.MemHash != want.MemHash:
		return "final memory differs"
	case got.Ret != want.Ret:
		return fmt.Sprintf("return value %d, want %d", got.Ret, want.Ret)
	case (got.Err == nil) != (want.Err == nil) ||
		got.Err != nil && got.Err.Error() != want.Err.Error():
		return fmt.Sprintf("error %v, want %v", got.Err, want.Err)
	}
	for _, s := range sentinels {
		if errors.Is(got.Err, s) != errors.Is(want.Err, s) {
			return fmt.Sprintf("error %v matches %v differently from %v", got.Err, s, want.Err)
		}
	}
	return ""
}
