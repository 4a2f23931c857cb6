// Package trace segments a program's execution into intervals — fixed
// length (the prior-work baseline) or variable length cut at software
// phase-marker firings — collecting a basic block vector and timing-model
// counters for each interval. It also provides the paper's homogeneity
// metric: the weighted per-phase coefficient of variation (§3.1).
package trace

import (
	"fmt"

	"phasemark/internal/bbv"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/obs"
	"phasemark/internal/uarch"
)

// Segmentation metrics: how many measured runs happened, how finely they
// were cut, and the interval-length distribution across all of them.
var (
	obsTraceRuns    = obs.NewCounter("trace.runs")
	obsIntervals    = obs.NewCounter("trace.intervals")
	obsMarkerFires  = obs.NewCounter("trace.marker_fires")
	obsIntervalLens = obs.NewHist("trace.interval_instructions")
)

// ProloguePhase is the phase ID of execution before the first marker
// firing (and of all intervals when cutting at fixed lengths, where phase
// IDs are assigned later by clustering).
const ProloguePhase = -1

// Interval is one contiguous slice of execution.
type Interval struct {
	Index   int
	Start   uint64 // dynamic instruction count at interval start
	End     uint64
	PhaseID int // marker index that began the interval, or ProloguePhase
	BBV     bbv.Vector
	Perf    uarch.Counters // metrics accumulated during this interval
}

// Len reports the interval's instruction count.
func (iv *Interval) Len() uint64 { return iv.End - iv.Start }

// CPI reports the interval's cycles per instruction.
func (iv *Interval) CPI() float64 { return iv.Perf.CPI() }

// Result is a segmented, measured execution.
type Result struct {
	Intervals    []*Interval
	Total        uarch.Counters
	Instructions uint64
	NumBlocks    int
	MarkerFires  uint64
}

// TrueCPI reports the whole-execution CPI.
func (r *Result) TrueCPI() float64 { return r.Total.CPI() }

// Config selects how to run and cut an execution.
type Config struct {
	Prog *minivm.Program
	Args []int64
	CPU  uarch.Config

	// FixedLen cuts every FixedLen instructions when nonzero; otherwise
	// Markers must be set and intervals are cut at marker firings.
	FixedLen uint64
	Markers  *core.MarkerSet

	// SkipBBV disables basic-block-vector collection (faster when only
	// CPI/miss metrics are needed).
	SkipBBV bool

	// Sink, when non-nil, switches Run into streaming mode: finished
	// intervals are handed to Sink in chunks of up to ChunkSize as the
	// execution proceeds, and Result.Intervals stays nil. The chunk and
	// every Interval in it — including BBV storage — are owned by the
	// tracer and recycled after Sink returns; a sink must finish with (or
	// deep-copy) anything it keeps. Working memory is then bounded by the
	// chunk instead of the trace. A Sink error aborts the run.
	Sink func(chunk []Interval) error

	// ChunkSize is the streaming chunk capacity in intervals (default 256).
	// Ignored when Sink is nil.
	ChunkSize int

	// Scale amplifies the trace by executing the program Scale times,
	// producing one Scale×-long segmented execution. Each repetition is
	// an independent cold run — machine state, timing model (caches,
	// predictor, counters), cutter grid, and detector occurrence counts
	// all reset at the boundary, and the repetition's final interval is
	// closed there — tiled end to end on the instruction axis. Identical
	// repetitions therefore produce identical interval sequences, which
	// is what makes the amplified trace reproducible rep by rep (and lets
	// Workers fan repetitions out without changing a single byte of
	// output). 0 or 1 means a single execution.
	Scale int

	// Workers enables the pipeline-parallel streaming engine when
	// positive and Sink is set: trace production is decoupled from
	// analysis through a bounded ring of event buffers (single
	// execution), and Scale repetitions are fanned over min(Workers,
	// Scale) machine instances with chunks delivered to Sink in
	// rep-major order (amplified execution). Output is bit-identical to
	// the serial stream at any worker count; only wall-clock changes.
	// 0 keeps the serial in-line path; negative is an error.
	// Materializing runs (Sink == nil) ignore Workers.
	Workers int
}

// collector owns the interval state and implements the cut logic.
type collector struct {
	cpu     *uarch.CPU
	acc     *bbv.Accumulator
	skipBBV bool

	// sink non-nil selects streaming mode: the arena doubles as the
	// delivery chunk, flushed and recycled (with the BBV snapshot chunks)
	// when full, and intervals stays nil.
	sink func(chunk []Interval) error
	err  error // first sink error; poisons the rest of the run

	intervals []*Interval
	// arena is the current Interval allocation chunk. In materializing
	// mode Interval pointers escape into the Result, so cut never reuses
	// storage — it appends into the chunk and starts a fresh one when
	// full, amortizing what used to be one heap allocation per interval
	// down to one per chunk (finished chunks stay alive through the
	// pointers into them). In streaming mode the one arena is reused for
	// the life of the run.
	arena    []Interval
	count    int // intervals cut so far (Index source in both modes)
	lastCut  uint64
	lastPerf uarch.Counters
	curPhase int
}

// intervalChunk is the Interval arena granularity.
const intervalChunk = 256

// perfBlockObs folds the timing model's per-block accounting and the BBV
// accumulator touch into a single observer call on the tracing hot path.
type perfBlockObs struct {
	minivm.NopObserver
	cpu *uarch.CPU
	acc *bbv.Accumulator
}

// ObservedEvents implements minivm.EventMasker.
func (o *perfBlockObs) ObservedEvents() minivm.EventMask { return minivm.EvBlock }

// OnBlock implements minivm.Observer.
func (o *perfBlockObs) OnBlock(b *minivm.Block) {
	o.cpu.OnBlock(b)
	o.acc.Touch(b.ID, b.Weight())
}

func (c *collector) cut(phase int, at uint64) {
	if at == c.lastCut {
		// Several markers firing at the same instant (e.g. a loop-entry
		// edge and its first iteration): the innermost firing defines the
		// new interval's phase; no zero-length interval is recorded.
		c.curPhase = phase
		return
	}
	now := c.cpu.Counters()
	iv := Interval{
		Index:   c.count,
		Start:   c.lastCut,
		End:     at,
		PhaseID: c.curPhase,
		Perf:    now.Sub(c.lastPerf),
	}
	if !c.skipBBV {
		iv.BBV = c.acc.Snapshot()
	}
	switch {
	case c.sink == nil:
		if len(c.arena) == cap(c.arena) {
			c.arena = make([]Interval, 0, intervalChunk)
		}
		c.arena = append(c.arena, iv)
		c.intervals = append(c.intervals, &c.arena[len(c.arena)-1])
	case c.err != nil:
		// A sink error already poisoned the run; drop the interval and
		// recycle its storage so the doomed remainder of the execution
		// cannot grow memory before Run surfaces the error.
		c.arena = c.arena[:0]
		if !c.skipBBV {
			c.acc.Rewind()
		}
	default:
		c.arena = append(c.arena, iv)
		if len(c.arena) == cap(c.arena) {
			c.flush()
		}
	}
	c.count++
	obsIntervalLens.Observe(at - c.lastCut)
	c.lastCut = at
	c.lastPerf = now
	c.curPhase = phase
}

// flush delivers the buffered chunk to the sink and recycles its storage
// (the Interval arena and the BBV snapshot chunks backing the vectors).
func (c *collector) flush() {
	if c.sink == nil || len(c.arena) == 0 || c.err != nil {
		return
	}
	if err := c.sink(c.arena); err != nil {
		c.err = err
	}
	c.arena = c.arena[:0]
	if !c.skipBBV {
		c.acc.Rewind()
	}
}

// analysisStack is the one trace pipeline: the timing model, the
// collector with its BBV accumulator, and the boundary source — the
// fixed-length cutter or the marker detector — that drives the cuts.
// Every regime runs it: serial Run wires it into the machine, the
// engine's record/replay split replays events into it, and each rep
// worker owns one.
type analysisStack struct {
	cpu   *uarch.CPU
	col   *collector
	det   *core.Detector
	fixed *FixedCutter
}

// newAnalysisStack builds the stack for cfg. A non-nil sink selects
// streaming mode with a cfg.ChunkSize arena; nil materializes. In marker
// mode the detector fires its entry-edge markers here, before any event.
func newAnalysisStack(cfg Config, sink func(chunk []Interval) error) *analysisStack {
	s := &analysisStack{cpu: uarch.NewCPU(cfg.CPU, cfg.Prog)}
	s.col = &collector{
		cpu:      s.cpu,
		acc:      bbv.NewAccumulator(cfg.Prog.NumBlocks),
		skipBBV:  cfg.SkipBBV,
		sink:     sink,
		curPhase: ProloguePhase,
	}
	if sink != nil {
		s.col.arena = make([]Interval, 0, cfg.ChunkSize)
	}
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

// observers returns the stack's machine observers in serial dispatch
// order: the cutter/detector first (a cut excludes the block that begins
// the next interval), then the timing model and BBV touch. The engine's
// replay loop (runSplit) calls the same components in the same order.
func (s *analysisStack) observers() minivm.MultiObserver {
	var list minivm.MultiObserver
	if s.det != nil {
		list = append(list, s.det)
	} else {
		list = append(list, s.fixed)
	}
	if s.col.skipBBV {
		return append(list, s.cpu)
	}
	// Fuse the timing model's block accounting with BBV collection into
	// one dispatch, and strip EvBlock from the CPU's own registration so
	// the machine makes two observer calls per block instead of three.
	return append(list,
		&perfBlockObs{cpu: s.cpu, acc: s.col.acc},
		minivm.Masked(s.cpu, minivm.EvBranch|minivm.EvMem))
}

// runRep executes one Scale repetition on m, a machine built over
// s.observers(), and closes the repetition's final interval at base (the
// stack's instruction position at the repetition start) plus its length.
// With restart set — every repetition after the first — the machine and
// the stack go cold first: timing model reset, detector occurrence
// counts cleared or cutter grid rebased.
func (s *analysisStack) runRep(m *minivm.Machine, args []int64, restart bool, base uint64) error {
	if restart {
		s.cpu.Reset()
		s.col.lastPerf = uarch.Counters{}
		m.Reset()
		if s.det != nil {
			if err := s.det.Restart(); err != nil {
				return fmt.Errorf("trace: scale restart: %w", err)
			}
		} else {
			s.fixed.Rebase()
		}
	}
	if _, err := m.Run(args...); err != nil {
		return fmt.Errorf("trace: run failed: %w", err)
	}
	s.col.cut(ProloguePhase, base+m.Instructions())
	return nil
}

// fires reports the marker firings so far (0 when cutting at fixed
// lengths).
func (s *analysisStack) fires() uint64 {
	if s.det == nil {
		return 0
	}
	return s.det.TotalFired()
}

// finish delivers any buffered streaming chunk and assembles the Result
// of a run whose final interval is closed.
func (s *analysisStack) finish(cfg Config, instrs uint64, total uarch.Counters) (*Result, error) {
	s.col.flush()
	if s.col.err != nil {
		return nil, fmt.Errorf("trace: sink: %w", s.col.err)
	}
	res := &Result{
		Intervals:    s.col.intervals,
		Total:        total,
		Instructions: instrs,
		NumBlocks:    cfg.Prog.NumBlocks,
		MarkerFires:  s.fires(),
	}
	countRun(s.col.count, res.MarkerFires)
	return res, nil
}

// countRun publishes a finished run to the segmentation metrics.
func countRun(intervals int, fires uint64) {
	obsTraceRuns.Inc()
	obsIntervals.Add(uint64(intervals))
	obsMarkerFires.Add(fires)
}

// Run executes the program under the timing model, cutting intervals per
// cfg, and returns the segmented result.
func Run(cfg Config) (*Result, error) {
	sp := obs.StartSpan("trace.exec", "")
	defer sp.End()
	if cfg.Prog == nil {
		return nil, fmt.Errorf("trace: nil program")
	}
	if cfg.FixedLen == 0 {
		if cfg.Markers == nil {
			return nil, fmt.Errorf("trace: need FixedLen or Markers")
		}
		if err := cfg.Markers.Validate(cfg.Prog); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
	}
	if cfg.CPU.L1.Sets == 0 {
		cfg.CPU = uarch.DefaultConfig()
	}
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = intervalChunk
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("trace: negative Workers (%d)", cfg.Workers)
	}
	if cfg.Sink != nil && cfg.Workers > 0 {
		// Pipeline-parallel streaming engine (engine.go): overlap trace
		// production with analysis, and fan Scale repetitions over
		// workers. Bit-identical to the serial path below.
		return runEngine(cfg)
	}
	s := newAnalysisStack(cfg, cfg.Sink)
	m := minivm.NewMachine(cfg.Prog, s.observers())
	// The Scale amplifier executes the program Scale times as one long
	// trace of independent cold repetitions: each repetition's final
	// interval is closed at its end, then the machine AND every observer
	// reset — timing model cold, cutter grid rebased, detector occurrence
	// counts cleared — so each repetition reproduces the same interval
	// sequence, tiled end to end on the instruction axis.
	var instrs uint64
	var total uarch.Counters // summed over the (reset) repetitions
	for rep := 0; rep < max(cfg.Scale, 1); rep++ {
		if err := s.runRep(m, cfg.Args, rep > 0, instrs); err != nil {
			return nil, err
		}
		instrs += m.Instructions()
		total = total.Add(s.cpu.Counters())
	}
	return s.finish(cfg, instrs, total)
}
