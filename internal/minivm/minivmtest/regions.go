package minivmtest

import "phasemark/internal/minivm"

// RegionTracker is the reference loop tracker: on every block it pops the
// active loops whose static region no longer contains the block, then
// enters or iterates the loop headed there. minivm.LoopTracker must
// reproduce its enter/iterate/exit sequence exactly.
type RegionTracker struct {
	minivm.NopObserver
	loops  *minivm.Loops
	ev     minivm.LoopEvents
	frames [][]*minivm.Loop
}

// NewRegionTracker builds a reference tracker for loops reporting to ev.
func NewRegionTracker(loops *minivm.Loops, ev minivm.LoopEvents) *RegionTracker {
	return &RegionTracker{loops: loops, ev: ev, frames: make([][]*minivm.Loop, 1)}
}

// ObservedEvents implements minivm.EventMasker.
func (t *RegionTracker) ObservedEvents() minivm.EventMask {
	return minivm.EvBlock | minivm.EvCall | minivm.EvReturn
}

// OnBlock implements minivm.Observer.
func (t *RegionTracker) OnBlock(b *minivm.Block) {
	active := &t.frames[len(t.frames)-1]
	for len(*active) > 0 {
		top := (*active)[len(*active)-1]
		if top.Proc == b.Proc && top.Contains(b.Index) {
			break
		}
		*active = (*active)[:len(*active)-1]
		t.ev.OnLoopExit(top)
	}
	if l := t.loops.LoopAtHead(b); l != nil {
		if n := len(*active); n > 0 && (*active)[n-1] == l {
			t.ev.OnLoopIterate(l)
		} else {
			*active = append(*active, l)
			t.ev.OnLoopEnter(l)
		}
	}
}

// OnCall implements minivm.Observer.
func (t *RegionTracker) OnCall(*minivm.Block, *minivm.Proc) {
	t.frames = append(t.frames, nil)
}

// OnReturn implements minivm.Observer.
func (t *RegionTracker) OnReturn(*minivm.Proc) {
	active := t.frames[len(t.frames)-1]
	for i := len(active) - 1; i >= 0; i-- {
		t.ev.OnLoopExit(active[i])
	}
	if len(t.frames) > 1 {
		t.frames = t.frames[:len(t.frames)-1]
	} else {
		t.frames[0] = nil
	}
}

// LoopStream hashes an ordered enter/iterate/exit sequence (kind and loop
// head block ID per event).
type LoopStream struct{ Stream }

// NewLoopStream returns an empty loop-event stream.
func NewLoopStream() *LoopStream { return &LoopStream{*NewStream()} }

// OnLoopEnter implements minivm.LoopEvents.
func (s *LoopStream) OnLoopEnter(l *minivm.Loop) { s.event(7); s.mix(uint64(l.Head.ID)) }

// OnLoopIterate implements minivm.LoopEvents.
func (s *LoopStream) OnLoopIterate(l *minivm.Loop) { s.event(8); s.mix(uint64(l.Head.ID)) }

// OnLoopExit implements minivm.LoopEvents.
func (s *LoopStream) OnLoopExit(l *minivm.Loop) { s.event(9); s.mix(uint64(l.Head.ID)) }
