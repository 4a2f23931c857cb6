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
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("trace: negative Workers (%d)", cfg.Workers)
	}
	if cfg.Sink != nil && cfg.Workers > 0 {
		// Pipeline-parallel streaming engine (engine.go): overlap trace
		// production with analysis, and fan Scale repetitions over
		// workers. Bit-identical to the serial path below.
		return runEngine(cfg)
	}
	cpu := uarch.NewCPU(cfg.CPU, cfg.Prog)
	col := &collector{
		cpu:      cpu,
		acc:      bbv.NewAccumulator(cfg.Prog.NumBlocks),
		skipBBV:  cfg.SkipBBV,
		sink:     cfg.Sink,
		curPhase: ProloguePhase,
	}
	if cfg.Sink != nil {
		chunk := cfg.ChunkSize
		if chunk <= 0 {
			chunk = intervalChunk
		}
		col.arena = make([]Interval, 0, chunk)
	}

	// Named to avoid shadowing the imported obs metrics package (a past
	// bug; shadow_test.go keeps it from returning).
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
		// Fuse the timing model's block accounting with BBV collection into
		// one dispatch, and strip EvBlock from the CPU's own registration so
		// the machine makes two observer calls per block instead of three.
		observers = append(observers,
			&perfBlockObs{cpu: cpu, acc: col.acc},
			minivm.Masked(cpu, minivm.EvBranch|minivm.EvMem))
	}

	m := minivm.NewMachine(cfg.Prog, observers)
	// The Scale amplifier executes the program Scale times as one long
	// trace of independent cold repetitions: at each boundary the
	// repetition's final interval is closed, then the machine AND every
	// observer reset — timing model cold, cutter grid rebased, detector
	// occurrence counts cleared — so each repetition reproduces the same
	// interval sequence, tiled end to end on the instruction axis.
	runs := max(cfg.Scale, 1)
	var total uint64
	var done uarch.Counters // totals of completed (reset) repetitions
	for rep := 0; rep < runs; rep++ {
		if rep > 0 {
			col.cut(ProloguePhase, total)
			done = done.Add(cpu.Counters())
			cpu.Reset()
			col.lastPerf = uarch.Counters{}
			m.Reset()
			if det != nil {
				if err := det.Restart(); err != nil {
					return nil, fmt.Errorf("trace: scale restart: %w", err)
				}
			} else {
				fixed.Rebase()
			}
		}
		if _, err := m.Run(cfg.Args...); err != nil {
			return nil, fmt.Errorf("trace: run failed: %w", err)
		}
		total += m.Instructions()
	}
	// Close the final interval and deliver any buffered streaming chunk.
	col.cut(ProloguePhase, total)
	col.flush()
	if col.err != nil {
		return nil, fmt.Errorf("trace: sink: %w", col.err)
	}

	res := &Result{
		Intervals:    col.intervals,
		Total:        done.Add(cpu.Counters()),
		Instructions: total,
		NumBlocks:    cfg.Prog.NumBlocks,
	}
	if det != nil {
		res.MarkerFires = det.TotalFired()
	}
	obsTraceRuns.Inc()
	obsIntervals.Add(uint64(col.count))
	obsMarkerFires.Add(res.MarkerFires)
	return res, nil
}
