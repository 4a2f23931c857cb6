package trace

import (
	"errors"
	"fmt"
	"sync"

	"phasemark/internal/bbv"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/uarch"
)

// This file is the pipeline-parallel streaming engine behind
// Config.Workers. Two regimes, both bit-identical to the serial
// streaming path in Run:
//
//   - Single execution (Scale <= 1): a record/replay split. The
//     interpreter runs on a producer goroutine with one flat observer
//     that encodes every event as a tagged word into a bounded ring of
//     buffers; the caller goroutine replays the words through the exact
//     observer sequence the serial path uses (cutter/detector, timing
//     model, BBV accumulator, collector, Sink). The ring gives
//     backpressure — the interpreter traces ahead while analysis
//     consumes — and replaying the total event order reproduces every
//     cut, counter, and snapshot by construction.
//
//   - Amplified execution (Scale >= 2): rep-parallel workers. Each of
//     min(Workers, Scale) workers owns a full machine + observer stack
//     and runs repetitions rep = w, w+W, w+2W, ... as independent cold
//     executions (Scale's contract), streaming rep-local chunks through
//     a bounded per-worker ring. The caller-side reducer consumes
//     chunks rep-major — all of rep 0, then rep 1, ... — rebases them
//     onto the global instruction axis, and feeds the Sink in order.
//     Because every repetition is cold, rep r's interval sequence does
//     not depend on which worker ran it or when, so the merged stream
//     equals the serial one byte for byte; only chunk boundaries may
//     differ (each repetition flushes its tail), and chunk partitioning
//     was never part of the streaming contract.
const (
	// eventBufWords is the capacity of one event buffer (~256KB). Big
	// enough that handoff synchronization is negligible against the
	// ~1M machine events it batches, small enough that the ring keeps
	// working memory bounded.
	eventBufWords = 1 << 15
	// engineRingBufs is the ring depth for both regimes: one buffer in
	// flight, one being filled, one spare absorbing jitter.
	engineRingBufs = 3
)

// Event words: tag in the low 3 bits, payload shifted above. Block and
// branch events carry the block ID, memory events the byte address
// (always < 2^61: addresses are word-indexed into bounded global
// memory), call events the callee proc ID above the 32-bit site block
// ID, returns the callee proc ID.
const (
	evBlock = iota
	evBranchT
	evBranchN
	evLoad
	evStore
	evCall
	evRet

	evTagBits = 3
	evTagMask = 1<<evTagBits - 1
)

// errEngineStopped poisons worker-side collectors when the reducer
// aborts; it never escapes to the caller (the originating error does).
var errEngineStopped = errors.New("trace: engine stopped")

// runEngine dispatches a streaming run with Workers >= 1.
func runEngine(cfg Config) (*Result, error) {
	if runs := max(cfg.Scale, 1); runs >= 2 {
		return runReps(cfg, runs)
	}
	return runSplit(cfg)
}

// eventRecorder is the producer-side observer: it packs every machine
// event into the current buffer and hands full buffers to the replay
// side, blocking on the free ring for backpressure. After a stop it
// keeps the machine runnable but discards events (the interpreter
// cannot be interrupted mid-Run; the doomed remainder executes without
// growing memory, mirroring the serial collector's poisoned mode).
type eventRecorder struct {
	mask    minivm.EventMask
	buf     []uint64
	filled  chan []uint64
	free    chan []uint64
	stop    <-chan struct{}
	stopped bool
}

// ObservedEvents implements minivm.EventMasker.
func (r *eventRecorder) ObservedEvents() minivm.EventMask { return r.mask }

func (r *eventRecorder) emit(w uint64) {
	if len(r.buf) == cap(r.buf) {
		r.handoff()
	}
	r.buf = append(r.buf, w)
}

// handoff ships the full buffer and acquires an empty one.
func (r *eventRecorder) handoff() {
	if r.stopped {
		r.buf = r.buf[:0]
		return
	}
	select {
	case r.filled <- r.buf:
	case <-r.stop:
		r.stopped = true
		r.buf = r.buf[:0]
		return
	}
	select {
	case nb := <-r.free:
		r.buf = nb[:0]
	case <-r.stop:
		// The shipped buffer is gone and no free one is coming back;
		// record into a throwaway so the machine can finish.
		r.stopped = true
		r.buf = make([]uint64, 0, eventBufWords)
	}
}

// flush ships a final partial buffer (producer end of run).
func (r *eventRecorder) flush() {
	if r.stopped || len(r.buf) == 0 {
		return
	}
	select {
	case r.filled <- r.buf:
		r.buf = nil
	case <-r.stop:
		r.stopped = true
	}
}

func (r *eventRecorder) OnBlock(b *minivm.Block) {
	r.emit(uint64(b.ID)<<evTagBits | evBlock)
}

func (r *eventRecorder) OnBranch(b *minivm.Block, taken bool) {
	t := uint64(evBranchN)
	if taken {
		t = evBranchT
	}
	r.emit(uint64(b.ID)<<evTagBits | t)
}

func (r *eventRecorder) OnMem(addr uint64, write bool) {
	t := uint64(evLoad)
	if write {
		t = evStore
	}
	r.emit(addr<<evTagBits | t)
}

func (r *eventRecorder) OnCall(site *minivm.Block, callee *minivm.Proc) {
	r.emit((uint64(callee.ID)<<32|uint64(uint32(site.ID)))<<evTagBits | evCall)
}

func (r *eventRecorder) OnReturn(callee *minivm.Proc) {
	r.emit(uint64(callee.ID)<<evTagBits | evRet)
}

// blockTable builds a dense block-ID -> *Block index (Program.BlockByID
// is a linear scan; replay needs O(1)).
func blockTable(p *minivm.Program) []*minivm.Block {
	t := make([]*minivm.Block, p.NumBlocks)
	for _, pr := range p.Procs {
		for _, b := range pr.Blocks {
			if b.ID >= 0 && b.ID < len(t) {
				t[b.ID] = b
			}
		}
	}
	return t
}

// analysisStack is the consumer-side observer state shared by both
// engine regimes: the same components, built the same way, as the
// serial path wires into the machine.
type analysisStack struct {
	cpu   *uarch.CPU
	col   *collector
	det   *core.Detector
	fixed *FixedCutter
}

func newAnalysisStack(cfg Config) *analysisStack {
	s := &analysisStack{cpu: uarch.NewCPU(cfg.CPU, cfg.Prog)}
	s.col = &collector{
		cpu:      s.cpu,
		acc:      bbv.NewAccumulator(cfg.Prog.NumBlocks),
		skipBBV:  cfg.SkipBBV,
		sink:     cfg.Sink,
		curPhase: ProloguePhase,
	}
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = intervalChunk
	}
	s.col.arena = make([]Interval, 0, chunk)
	if cfg.FixedLen > 0 {
		s.fixed = NewFixedCutter(cfg.FixedLen, func(at uint64) {
			s.col.cut(ProloguePhase, at)
		})
	} else {
		s.det = core.NewDetector(cfg.Prog, nil, cfg.Markers, func(marker int, at uint64) {
			s.col.cut(marker, at)
		})
	}
	return s
}

// runSplit is the single-execution record/replay regime: one producer
// goroutine interprets, the caller replays events through the analysis
// stack in the serial observer order.
func runSplit(cfg Config) (*Result, error) {
	mask := minivm.EvBlock | minivm.EvBranch | minivm.EvMem
	if cfg.FixedLen == 0 {
		mask |= minivm.EvCall | minivm.EvReturn
	}
	stop := make(chan struct{})
	var stopOnce sync.Once
	defer stopOnce.Do(func() { close(stop) })

	rec := &eventRecorder{
		mask:   mask,
		buf:    make([]uint64, 0, eventBufWords),
		filled: make(chan []uint64, engineRingBufs),
		free:   make(chan []uint64, engineRingBufs),
		stop:   stop,
	}
	for i := 1; i < engineRingBufs; i++ {
		rec.free <- make([]uint64, 0, eventBufWords)
	}

	m := minivm.NewMachine(cfg.Prog, rec)
	var prodErr error
	var prodInstrs uint64
	go func() {
		_, err := m.Run(cfg.Args...)
		if err == nil {
			rec.flush()
		}
		prodErr = err
		prodInstrs = m.Instructions()
		close(rec.filled) // happens-after the writes above
	}()

	// The analysis stack is constructed on the consumer side exactly as
	// the serial path constructs it; in marker mode the detector fires
	// entry-edge markers here, before any event replays, just as
	// NewDetector does before the serial machine starts.
	s := newAnalysisStack(cfg)
	blocks := blockTable(cfg.Prog)
	procs := cfg.Prog.Procs
	skip := cfg.SkipBBV
	var total uint64
	for buf := range rec.filled {
		for _, w := range buf {
			payload := w >> evTagBits
			switch w & evTagMask {
			case evBlock:
				b := blocks[payload]
				// Serial dispatch order per block: cutter/detector first
				// (a cut excludes the block that begins the next
				// interval), then the timing model and BBV touch.
				if s.det != nil {
					s.det.OnBlock(b)
				} else {
					s.fixed.OnBlock(b)
				}
				s.cpu.OnBlock(b)
				if !skip {
					s.col.acc.Touch(b.ID, b.Weight())
				}
				total += uint64(b.Weight())
			case evBranchT:
				s.cpu.OnBranch(blocks[payload], true)
			case evBranchN:
				s.cpu.OnBranch(blocks[payload], false)
			case evLoad:
				s.cpu.OnMem(payload, false)
			case evStore:
				s.cpu.OnMem(payload, true)
			case evCall:
				s.det.OnCall(blocks[uint32(payload)], procs[payload>>32])
			case evRet:
				s.det.OnReturn(procs[payload])
			}
		}
		rec.free <- buf[:0]
		if s.col.err != nil {
			// Sink error: stop the producer's deliveries and drain what
			// is already in flight without replaying it.
			stopOnce.Do(func() { close(stop) })
			for range rec.filled {
			}
			break
		}
	}
	if prodErr != nil {
		// Same precedence as the serial path: a failed execution trumps
		// a sink error (the poisoned collector just kept it from
		// growing memory in the meantime).
		return nil, fmt.Errorf("trace: run failed: %w", prodErr)
	}
	if s.col.err != nil {
		return nil, fmt.Errorf("trace: sink: %w", s.col.err)
	}
	if total != prodInstrs {
		return nil, fmt.Errorf("trace: engine replay drift: replayed %d instructions, machine ran %d", total, prodInstrs)
	}

	s.col.cut(ProloguePhase, total)
	s.col.flush()
	if s.col.err != nil {
		return nil, fmt.Errorf("trace: sink: %w", s.col.err)
	}
	res := &Result{
		Total:        s.cpu.Counters(),
		Instructions: total,
		NumBlocks:    cfg.Prog.NumBlocks,
	}
	if s.det != nil {
		res.MarkerFires = s.det.TotalFired()
	}
	obsTraceRuns.Inc()
	obsIntervals.Add(uint64(s.col.count))
	obsMarkerFires.Add(res.MarkerFires)
	return res, nil
}

// repChunk is the rep-parallel transfer unit: a deep copy of one
// streamed chunk in rep-local coordinates (the reducer rebases onto the
// global axis), with its BBV entries carved from the chunk-owned
// idx/val arenas. A chunk with last set closes a repetition and carries
// its totals; err reports a worker failure.
type repChunk struct {
	ivs    []Interval
	idx    []int32
	val    []float64
	last   bool
	instrs uint64         // repetition length (last only)
	perf   uarch.Counters // repetition timing totals (last only)
	fires  uint64         // repetition marker fires (last only)
	err    error
}

// fill deep-copies chunk into tc, translating worker-cumulative
// positions into rep-local ones. Two passes so the idx/val arenas are
// sized before any vector is carved from them (growing mid-copy would
// invalidate earlier carves); at steady state the arenas are warm and
// the copy allocates nothing.
func (tc *repChunk) fill(chunk []Interval, instrBase uint64, indexBase int) {
	entries := 0
	for i := range chunk {
		entries += len(chunk[i].BBV.Idx)
	}
	if cap(tc.idx) < entries {
		tc.idx = make([]int32, 0, entries)
		tc.val = make([]float64, 0, entries)
	}
	tc.idx, tc.val = tc.idx[:0], tc.val[:0]
	tc.ivs = tc.ivs[:0]
	for i := range chunk {
		iv := chunk[i]
		iv.Index -= indexBase
		iv.Start -= instrBase
		iv.End -= instrBase
		if n := len(iv.BBV.Idx); n > 0 {
			lo := len(tc.idx)
			tc.idx = append(tc.idx, iv.BBV.Idx...)
			tc.val = append(tc.val, iv.BBV.Val...)
			iv.BBV = bbv.Vector{Idx: tc.idx[lo : lo+n : lo+n], Val: tc.val[lo : lo+n : lo+n]}
		}
		tc.ivs = append(tc.ivs, iv)
	}
}

// repWorker runs repetitions w, w+W, w+2W, ... on its own machine and
// analysis state, shipping rep-local chunks through its ring. The
// machine, CPU, and detector are built once and Reset/Restart-reused
// between repetitions — each repetition is an independent cold run,
// exactly as the serial Scale loop makes them.
func repWorker(cfg Config, runs, w, W int, out chan<- *repChunk, free <-chan *repChunk, stop <-chan struct{}) {
	defer close(out)

	acquire := func() (*repChunk, bool) {
		select {
		case tc := <-free:
			return tc, true
		case <-stop:
			return nil, false
		}
	}
	send := func(tc *repChunk) bool {
		select {
		case out <- tc:
			return true
		case <-stop:
			return false
		}
	}
	// fail delivers a terminal error on a dedicated chunk (never part of
	// the ring, so no acquire can deadlock the report).
	fail := func(err error) {
		send(&repChunk{err: err})
	}

	cpu := uarch.NewCPU(cfg.CPU, cfg.Prog)
	col := &collector{
		cpu:      cpu,
		acc:      bbv.NewAccumulator(cfg.Prog.NumBlocks),
		skipBBV:  cfg.SkipBBV,
		curPhase: ProloguePhase,
	}
	chunkCap := cfg.ChunkSize
	if chunkCap <= 0 {
		chunkCap = intervalChunk
	}
	col.arena = make([]Interval, 0, chunkCap)

	var repInstrBase uint64 // worker-cumulative position at rep start
	var repIndexBase int
	col.sink = func(chunk []Interval) error {
		tc, ok := acquire()
		if !ok {
			return errEngineStopped
		}
		tc.last, tc.err = false, nil
		tc.fill(chunk, repInstrBase, repIndexBase)
		if !send(tc) {
			return errEngineStopped
		}
		return nil
	}

	var observers minivm.MultiObserver
	var det *core.Detector
	var fixed *FixedCutter
	if cfg.FixedLen > 0 {
		fixed = NewFixedCutter(cfg.FixedLen, func(at uint64) {
			col.cut(ProloguePhase, at)
		})
		observers = append(observers, fixed)
	} else {
		det = core.NewDetector(cfg.Prog, nil, cfg.Markers, func(marker int, at uint64) {
			col.cut(marker, at)
		})
		observers = append(observers, det)
	}
	if cfg.SkipBBV {
		observers = append(observers, cpu)
	} else {
		observers = append(observers,
			&perfBlockObs{cpu: cpu, acc: col.acc},
			minivm.Masked(cpu, minivm.EvBranch|minivm.EvMem))
	}
	m := minivm.NewMachine(cfg.Prog, observers)

	var workerTotal uint64
	var firedBase uint64
	for rep := w; rep < runs; rep += W {
		if rep != w {
			cpu.Reset()
			col.lastPerf = uarch.Counters{}
			m.Reset()
			if det != nil {
				if err := det.Restart(); err != nil {
					fail(fmt.Errorf("trace: scale restart: %w", err))
					return
				}
			} else {
				fixed.Rebase()
			}
		}
		repInstrBase = workerTotal
		repIndexBase = col.count
		if _, err := m.Run(cfg.Args...); err != nil {
			fail(fmt.Errorf("trace: run failed: %w", err))
			return
		}
		workerTotal += m.Instructions()
		col.cut(ProloguePhase, workerTotal)
		col.flush()
		if col.err != nil {
			if col.err != errEngineStopped {
				fail(col.err)
			}
			return
		}
		tc, ok := acquire()
		if !ok {
			return
		}
		tc.ivs = tc.ivs[:0]
		tc.last, tc.err = true, nil
		tc.instrs = m.Instructions()
		tc.perf = cpu.Counters()
		if det != nil {
			tc.fires = det.TotalFired() - firedBase
			firedBase = det.TotalFired()
		}
		if !send(tc) {
			return
		}
	}
}

// runReps is the amplified-execution regime: repetitions fan out over
// min(Workers, Scale) workers; the reducer stitches their rep-local
// streams back into the one global stream the serial path produces.
func runReps(cfg Config, runs int) (*Result, error) {
	W := min(cfg.Workers, runs)
	chunkCap := cfg.ChunkSize
	if chunkCap <= 0 {
		chunkCap = intervalChunk
	}

	stop := make(chan struct{})
	var stopOnce sync.Once
	defer stopOnce.Do(func() { close(stop) })

	outs := make([]chan *repChunk, W)
	frees := make([]chan *repChunk, W)
	for w := 0; w < W; w++ {
		outs[w] = make(chan *repChunk, engineRingBufs)
		frees[w] = make(chan *repChunk, engineRingBufs)
		for i := 0; i < engineRingBufs; i++ {
			frees[w] <- &repChunk{ivs: make([]Interval, 0, chunkCap)}
		}
		go repWorker(cfg, runs, w, W, outs[w], frees[w], stop)
	}

	var firstErr error
	abort := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		stopOnce.Do(func() { close(stop) })
	}

	var baseInstr uint64
	var baseIndex int
	var total uarch.Counters
	var fires uint64
reduce:
	for rep := 0; rep < runs; rep++ {
		w := rep % W
		repCount := 0
		for {
			tc, ok := <-outs[w]
			if !ok {
				abort(fmt.Errorf("trace: rep worker %d exited before repetition %d", w, rep))
				break reduce
			}
			if tc.err != nil {
				abort(tc.err)
				break reduce
			}
			if len(tc.ivs) > 0 {
				// Rebase rep-local coordinates onto the global axis: the
				// index and instruction bases advance by whole repetitions,
				// at the rep's closing chunk below.
				for i := range tc.ivs {
					tc.ivs[i].Index += baseIndex
					tc.ivs[i].Start += baseInstr
					tc.ivs[i].End += baseInstr
				}
				repCount += len(tc.ivs)
				if err := cfg.Sink(tc.ivs); err != nil {
					abort(fmt.Errorf("trace: sink: %w", err))
					break reduce
				}
			}
			last := tc.last
			if last {
				baseInstr += tc.instrs
				baseIndex += repCount
				total = total.Add(tc.perf)
				fires += tc.fires
			}
			select { // ring slot back to the worker (never full; errors are off-ring)
			case frees[w] <- tc:
			default:
			}
			if last {
				break
			}
		}
	}
	stopOnce.Do(func() { close(stop) })
	if firstErr != nil {
		return nil, firstErr
	}

	res := &Result{
		Total:        total,
		Instructions: baseInstr,
		NumBlocks:    cfg.Prog.NumBlocks,
		MarkerFires:  fires,
	}
	obsTraceRuns.Inc()
	obsIntervals.Add(uint64(baseIndex))
	obsMarkerFires.Add(fires)
	return res, nil
}
