package core

import (
	"fmt"

	"phasemark/internal/minivm"
)

// EdgeSink receives call-loop edge traversal events from a Walker. The
// profiler implements it to accumulate edge statistics.
type EdgeSink interface {
	// EdgeOpen fires when a traversal of edge k begins, with the dynamic
	// instruction count at that point. A software phase marker placed on k
	// signals the beginning of an interval here.
	EdgeOpen(k EdgeKey, at uint64)
	// EdgeClose fires when the traversal ends; hier is the hierarchical
	// dynamic instruction count spent on the traversal.
	EdgeClose(k EdgeKey, hier uint64)
}

type walkEntry struct {
	key   EdgeKey // key.To is the context node this entry establishes
	start uint64
	full  bool         // proc-body entry with a head entry beneath it
	pend  *minivm.Loop // loop-head entry awaiting its first iteration block
}

// Walker reconstructs call-loop edge traversals from an execution for
// profiling (graph building): it mirrors the machine's call stack and
// active-loop nesting, opening and closing edges of the (virtual)
// call-loop graph and measuring hierarchical instruction counts. Marker
// detection reproduces its edge opens without it (see Detector).
//
// Wire it to a Machine as the Observer (fan in with MultiObserver to
// combine with others).
type Walker struct {
	sink    EdgeSink
	tracker *minivm.LoopTracker
	instrs  uint64
	stack   []walkEntry
	act     []int // activation count per proc ID (recursion detection)
}

// NewWalker builds a walker over prog (with the given loop table, which
// must come from the same program) reporting to sink.
func NewWalker(prog *minivm.Program, loops *minivm.Loops, sink EdgeSink) *Walker {
	w := &Walker{sink: sink, act: make([]int, len(prog.Procs))}
	w.tracker = minivm.NewLoopTracker(loops, w)
	entry := prog.EntryProc()
	// The virtual root calls the entry procedure.
	root := NodeKey{Kind: RootKind}
	w.openProc(root, entry, entry.Blocks[0].ID)
	return w
}

// ObservedEvents implements minivm.EventMasker: the walker mirrors control
// flow (blocks, calls, returns) and never reads branch outcomes or memory
// references. Profiler inherits the mask.
func (w *Walker) ObservedEvents() minivm.EventMask {
	return minivm.EvBlock | minivm.EvCall | minivm.EvReturn
}

func (w *Walker) top() NodeKey {
	if len(w.stack) == 0 {
		return NodeKey{Kind: RootKind}
	}
	return w.stack[len(w.stack)-1].key.To
}

func (w *Walker) push(key EdgeKey, full bool) {
	w.sink.EdgeOpen(key, w.instrs)
	w.stack = append(w.stack, walkEntry{key: key, start: w.instrs, full: full})
}

func (w *Walker) pop() {
	n := len(w.stack) - 1
	w.sink.EdgeClose(w.stack[n].key, w.instrs-w.stack[n].start)
	w.stack = w.stack[:n]
}

func (w *Walker) openProc(ctx NodeKey, callee *minivm.Proc, site int) {
	head := NodeKey{Kind: ProcHead, ID: callee.ID}
	body := NodeKey{Kind: ProcBody, ID: callee.ID}
	w.push(EdgeKey{From: ctx, To: head, Site: site}, false)
	w.push(EdgeKey{From: head, To: body, Site: callee.Blocks[0].ID}, true)
	w.act[callee.ID]++
}

// resolvePending opens the loop-body edge for a loop head waiting for its
// first iteration block. An iteration begins when control moves from the
// head (where the loop condition is evaluated) into the loop proper, so
// the final head pass that exits the loop is not counted as an iteration.
func (w *Walker) resolvePending() {
	top := &w.stack[len(w.stack)-1]
	l := top.pend
	top.pend = nil
	head := NodeKey{Kind: LoopHead, ID: l.Head.ID}
	body := NodeKey{Kind: LoopBody, ID: l.Head.ID}
	w.push(EdgeKey{From: head, To: body, Site: l.Head.ID}, false)
}

// OnBlock implements minivm.Observer.
func (w *Walker) OnBlock(b *minivm.Block) {
	// Loop transitions are processed against the pre-block instruction
	// count so loop spans align exactly with head-block executions.
	if n := len(w.stack); n > 0 {
		if l := w.stack[n-1].pend; l != nil &&
			b.Proc == l.Proc && l.Contains(b.Index) && b != l.Head {
			w.resolvePending()
		}
	}
	w.tracker.OnBlock(b)
	w.instrs += uint64(b.Weight())
}

// OnCall implements minivm.Observer.
func (w *Walker) OnCall(site *minivm.Block, callee *minivm.Proc) {
	// A call from a loop-head block (the condition itself calls) starts
	// the iteration.
	if n := len(w.stack); n > 0 && w.stack[n-1].pend != nil {
		w.resolvePending()
	}
	w.tracker.OnCall(site, callee)
	ctx := w.top()
	if w.act[callee.ID] > 0 {
		// Recursive activation: traverse directly to the body node so the
		// head's incoming edge measures the entire outermost episode (§4.2).
		body := NodeKey{Kind: ProcBody, ID: callee.ID}
		w.push(EdgeKey{From: ctx, To: body, Site: site.ID}, false)
		w.act[callee.ID]++
		return
	}
	w.openProc(ctx, callee, site.ID)
}

// OnReturn implements minivm.Observer.
func (w *Walker) OnReturn(callee *minivm.Proc) {
	// First let the tracker fire exits for loops still active in the
	// returning frame; those entries sit above the proc entries.
	w.tracker.OnReturn(callee)
	if len(w.stack) == 0 {
		return
	}
	full := w.stack[len(w.stack)-1].full
	w.pop() // body edge (or recursive-activation edge)
	if full {
		w.pop() // head edge
	}
	w.act[callee.ID]--
}

// OnBranch implements minivm.Observer.
func (w *Walker) OnBranch(*minivm.Block, bool) {}

// OnMem implements minivm.Observer.
func (w *Walker) OnMem(uint64, bool) {}

// OnLoopEnter implements minivm.LoopEvents.
func (w *Walker) OnLoopEnter(l *minivm.Loop) {
	ctx := w.top()
	head := NodeKey{Kind: LoopHead, ID: l.Head.ID}
	w.push(EdgeKey{From: ctx, To: head, Site: l.Head.ID}, false)
	w.stack[len(w.stack)-1].pend = l // body opens at the first iteration block
}

// OnLoopIterate implements minivm.LoopEvents.
func (w *Walker) OnLoopIterate(l *minivm.Loop) {
	top := &w.stack[len(w.stack)-1]
	if top.pend != nil {
		// Degenerate loop whose head is its own latch (empty body after
		// optimization): no body edge ever opens.
		return
	}
	// Close the finished iteration's body edge; the next iteration's body
	// edge opens at its first post-head block.
	w.pop()
	w.stack[len(w.stack)-1].pend = l
}

// OnLoopExit implements minivm.LoopEvents.
func (w *Walker) OnLoopExit(l *minivm.Loop) {
	top := &w.stack[len(w.stack)-1]
	if top.pend != nil {
		top.pend = nil // exiting head pass was not an iteration
	} else {
		w.pop() // body
	}
	w.pop() // head
}

// Finish closes any traversals still open (none after a balanced run; a
// truncated run closes what remains) and verifies internal consistency.
func (w *Walker) Finish() error {
	for len(w.stack) > 0 {
		w.pop()
	}
	for id, a := range w.act {
		if a != 0 {
			return fmt.Errorf("core: unbalanced activations for proc %d: %d", id, a)
		}
	}
	return nil
}
