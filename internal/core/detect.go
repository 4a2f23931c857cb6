package core

import (
	"fmt"

	"phasemark/internal/minivm"
)

// BoundaryFunc is called when a phase marker fires: marker is the index in
// the MarkerSet, at is the dynamic instruction count at the firing point
// (the beginning of the new interval).
type BoundaryFunc func(marker int, at uint64)

// Detector watches an execution for phase-marker firings. Wire it to the
// machine as the Observer. Detection is purely structural: it needs no
// hardware support and no per-interval metrics — this is the paper's
// "insert instrumentation at the markers" runtime, applied to the same or
// a different input than the one profiled.
//
// The detector fires exactly where the profiling Walker would open a
// marked edge, but it keeps none of the walker's traversal stack and
// builds no EdgeKey for unmarked edges. The marker set is compiled into a
// static firing table indexed by site block ID; every traversal the
// walker would open has a statically known site (the call site, the
// callee's entry block, or the loop head), so an event whose site holds
// no marker costs one indexed load. Only at a marked site is the edge's
// source node derived, from the loop tracker's active loops and the
// per-procedure activation counts. DESIGN.md §11 lists the walker rules
// this reproduces.
type Detector struct {
	prog    *minivm.Program
	tracker *minivm.LoopTracker
	set     *MarkerSet
	bySite  [][]siteMarker
	act     []int // activation count per proc ID (recursion detection)
	instrs  uint64
	// pend is the current frame's innermost loop when it has passed its
	// head but not yet begun an iteration. It is tracked only for loops
	// with a marker at their head: no other loop can fire on iteration.
	pend   *minivm.Loop
	seen   []uint64
	fired  []uint64
	onFire BoundaryFunc
}

// siteMarker is one marker anchored at a site block, for the dense
// site-indexed lookup on the hot path.
type siteMarker struct {
	key EdgeKey
	idx int
}

// NewDetector builds a detector for set over prog. The loop table may be
// shared with other components; pass nil to compute it here. The virtual
// root's edges into the entry procedure open here, so entry-anchored
// markers fire before the first block executes.
func NewDetector(prog *minivm.Program, loops *minivm.Loops, set *MarkerSet, onFire BoundaryFunc) *Detector {
	if loops == nil {
		loops = minivm.FindLoops(prog)
	}
	d := &Detector{
		prog:   prog,
		set:    set,
		bySite: make([][]siteMarker, prog.NumBlocks),
		act:    make([]int, len(prog.Procs)),
		seen:   make([]uint64, len(set.Markers)),
		fired:  make([]uint64, len(set.Markers)),
		onFire: onFire,
	}
	for i, mk := range set.Markers {
		if s := mk.Key.Site; s >= 0 && s < len(d.bySite) {
			d.bySite[s] = append(d.bySite[s], siteMarker{key: mk.Key, idx: i})
		}
	}
	d.tracker = minivm.NewLoopTracker(loops, d)
	d.enterRoot()
	return d
}

// ObservedEvents implements minivm.EventMasker: detection follows control
// flow (blocks, calls, returns) and never reads branch outcomes or memory
// references.
func (d *Detector) ObservedEvents() minivm.EventMask {
	return minivm.EvBlock | minivm.EvCall | minivm.EvReturn
}

// marked reports whether any marker is anchored at site block id.
func (d *Detector) marked(site int) bool { return len(d.bySite[site]) != 0 }

// fire counts one traversal of k and fires k's marker, if any, per its
// GroupN.
func (d *Detector) fire(k EdgeKey) {
	for _, sm := range d.bySite[k.Site] {
		if sm.key == k {
			i := sm.idx
			d.seen[i]++
			if (d.seen[i]-1)%d.set.Markers[i].GroupN == 0 {
				d.fired[i]++
				if d.onFire != nil {
					d.onFire(i, d.instrs)
				}
			}
			return
		}
	}
}

// context is the node the walker's traversal stack has on top in the
// current frame of procedure p, looking past the innermost skip active
// loops: the body of the innermost remaining loop, else p's body.
func (d *Detector) context(p *minivm.Proc, skip int) NodeKey {
	if a := d.tracker.Active(); len(a) > skip {
		return NodeKey{Kind: LoopBody, ID: a[len(a)-1-skip].Head.ID}
	}
	return NodeKey{Kind: ProcBody, ID: p.ID}
}

// enterProc is a call from ctx at site into callee. An inactive callee
// opens ctx→head@site then head→body@entry; an active (recursive) callee
// opens ctx→body@site only, so the head measures outermost episodes.
func (d *Detector) enterProc(ctx NodeKey, callee *minivm.Proc, site int) {
	id := callee.ID
	if d.act[id] > 0 {
		if d.marked(site) {
			d.fire(EdgeKey{From: ctx, To: NodeKey{Kind: ProcBody, ID: id}, Site: site})
		}
	} else {
		head := NodeKey{Kind: ProcHead, ID: id}
		if d.marked(site) {
			d.fire(EdgeKey{From: ctx, To: head, Site: site})
		}
		if entry := callee.Blocks[0].ID; d.marked(entry) {
			d.fire(EdgeKey{From: head, To: NodeKey{Kind: ProcBody, ID: id}, Site: entry})
		}
	}
	d.act[id]++
}

// enterRoot opens the virtual root's call into the entry procedure.
func (d *Detector) enterRoot() {
	entry := d.prog.EntryProc()
	d.enterProc(NodeKey{Kind: RootKind}, entry, entry.Blocks[0].ID)
}

// iterate opens the pending loop's head→body edge: an iteration begins
// when control moves from the head into the loop proper, so the final
// head pass that exits the loop is not an iteration.
func (d *Detector) iterate() {
	h := d.pend.Head.ID
	d.pend = nil
	d.fire(EdgeKey{From: NodeKey{Kind: LoopHead, ID: h}, To: NodeKey{Kind: LoopBody, ID: h}, Site: h})
}

// OnBlock implements minivm.Observer. Loop transitions are processed
// against the pre-block instruction count so loop spans align exactly
// with head-block executions.
func (d *Detector) OnBlock(b *minivm.Block) {
	if l := d.pend; l != nil && b.Proc == l.Proc && l.Contains(b.Index) && b != l.Head {
		d.iterate()
	}
	d.tracker.OnBlock(b)
	d.instrs += uint64(b.Weight())
}

// OnCall implements minivm.Observer.
func (d *Detector) OnCall(site *minivm.Block, callee *minivm.Proc) {
	// A call from a loop-head block (the condition itself calls) starts
	// the iteration.
	if d.pend != nil {
		d.iterate()
	}
	var ctx NodeKey
	if d.marked(site.ID) {
		ctx = d.context(site.Proc, 0) // before the tracker opens the callee's frame
	}
	d.tracker.OnCall(site, callee)
	d.enterProc(ctx, callee, site.ID)
}

// OnReturn implements minivm.Observer.
func (d *Detector) OnReturn(callee *minivm.Proc) {
	d.tracker.OnReturn(callee) // exits the returning frame's active loops
	d.act[callee.ID]--
}

// OnBranch implements minivm.Observer.
func (d *Detector) OnBranch(*minivm.Block, bool) {}

// OnMem implements minivm.Observer.
func (d *Detector) OnMem(uint64, bool) {}

// OnLoopEnter implements minivm.LoopEvents: ctx→head opens at the loop's
// head, in the context of the loop that encloses it.
func (d *Detector) OnLoopEnter(l *minivm.Loop) {
	if h := l.Head.ID; d.marked(h) {
		d.fire(EdgeKey{From: d.context(l.Proc, 1), To: NodeKey{Kind: LoopHead, ID: h}, Site: h})
		d.pend = l // the first iteration opens at its first post-head block
	}
}

// OnLoopIterate implements minivm.LoopEvents. A degenerate loop whose
// head is its own latch stays pending: no iteration edge ever opens.
func (d *Detector) OnLoopIterate(l *minivm.Loop) {
	if d.marked(l.Head.ID) {
		d.pend = l
	}
}

// OnLoopExit implements minivm.LoopEvents. Exits run innermost first, so
// a pending loop is always the one exiting: its last head pass was not
// an iteration.
func (d *Detector) OnLoopExit(*minivm.Loop) { d.pend = nil }

// Fired reports how many times marker i fired.
func (d *Detector) Fired(i int) uint64 { return d.fired[i] }

// Restart prepares the detector for another independent execution of the
// same program: per-marker occurrence counts reset (so GroupN grouping
// starts cold, exactly as in a fresh Detector) while the fired totals and
// the instruction count keep accumulating across repetitions, so a
// restarted detector observes one long amplified execution. The virtual
// root edges re-open at the restart point: entry-anchored markers fire
// again, just as they do when a new run begins. The previous run must
// have ended balanced (the machine halted or returned from the entry
// procedure). This is what trace.Run's Scale amplifier uses between
// machine resets.
func (d *Detector) Restart() error {
	for id, a := range d.act {
		if a != 0 {
			return fmt.Errorf("core: restart with unbalanced activations for proc %d: %d", id, a)
		}
	}
	clear(d.seen)
	d.enterRoot()
	return nil
}

// Firing is one recorded marker firing: the marker's index in its set and
// the dynamic instruction count at the firing point.
type Firing struct {
	Marker int
	At     uint64
}

// DetectFirings runs prog under a Detector for set and
// returns every firing in execution order plus the finished machine (for
// output and instruction-count inspection). It is the analysis-side
// reference the correctness harness compares instrumented binaries
// against.
func DetectFirings(prog *minivm.Program, set *MarkerSet, args ...int64) ([]Firing, *minivm.Machine, error) {
	var seq []Firing
	det := NewDetector(prog, nil, set, func(marker int, at uint64) {
		seq = append(seq, Firing{Marker: marker, At: at})
	})
	m := minivm.NewMachine(prog, det)
	if _, err := m.Run(args...); err != nil {
		return nil, nil, fmt.Errorf("core: detect firings: %w", err)
	}
	return seq, m, nil
}

// InstrumentedFirings physically instruments prog with set (Instrument),
// runs the rewritten binary, and returns the mark-stream firings with
// GroupN applied, plus the finished machine. Firing.At counts the
// instrumented binary's instructions, which include the inserted marks
// and trampolines — compare marker sequences across binaries, not
// positions.
func InstrumentedFirings(prog *minivm.Program, set *MarkerSet, args ...int64) ([]Firing, *minivm.Machine, error) {
	inst, err := Instrument(prog, set)
	if err != nil {
		return nil, nil, err
	}
	var seq []Firing
	m := minivm.NewMachine(inst, nil)
	h := NewMarkHandler(set, func(marker int) {
		seq = append(seq, Firing{Marker: marker, At: m.Instructions()})
	})
	m.MarkFunc = h.Fn
	if _, err := m.Run(args...); err != nil {
		return nil, nil, fmt.Errorf("core: instrumented firings: %w", err)
	}
	return seq, m, nil
}

// TotalFired reports the total number of marker firings (phase-change
// signals) observed.
func (d *Detector) TotalFired() uint64 {
	var n uint64
	for _, f := range d.fired {
		n += f
	}
	return n
}
