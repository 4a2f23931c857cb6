package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"phasemark/internal/compile"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/service"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

// Batch knobs. marker_xinput selects and clusters with phased's defaults;
// fixed_simpoint is the SimPoint baseline at 10k-instruction intervals
// with KMax=30.
const (
	fixedLen  = 10_000
	fixedKMax = 30
	dims      = service.DefaultDims
)

// markerSelect is phased's default selection.
var markerSelect = service.SelectSpec{ILower: service.DefaultILower}.SelectOptions()

// program is one workload program in both backends.
type program struct {
	name  string
	reg   *minivm.Program // register backend, unoptimized: what phased and the figures trace
	stack *minivm.Program // stack backend: the reference for guest output
}

// compilePrograms compiles each program with both backends and reports
// the compile time.
func compilePrograms(names []string) (map[string]*program, time.Duration, error) {
	t0 := time.Now()
	out := map[string]*program{}
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, 0, err
		}
		reg, err := compile.CompileSource(w.Source, compile.Options{})
		if err != nil {
			return nil, 0, fmt.Errorf("compile %s: %w", n, err)
		}
		stack, err := compile.CompileSource(w.Source, compile.Options{Stack: true})
		if err != nil {
			return nil, 0, fmt.Errorf("compile %s (stack): %w", n, err)
		}
		out[n] = &program{name: n, reg: reg, stack: stack}
	}
	return out, time.Since(t0), nil
}

// batchSetup is the state a batch workload's set-up builds.
type batchSetup struct {
	progs     map[string]*program
	ops       []batchOp
	refs      map[string]reference // by inputKey
	compileMS []float64
}

// setupBatch compiles the programs, generates the op list and runs the
// reference pair for every distinct ref input, reps times; it reports the
// median set-up time.
func setupBatch(e *env, reps int, names []string, nominal float64, gen func(uint64, int) ([]batchOp, error)) (*batchSetup, float64, error) {
	st := &batchSetup{}
	secs, err := timeSetup(reps, func() error {
		progs, dur, err := compilePrograms(names)
		if err != nil {
			return err
		}
		ops, err := gen(e.seed, opCount(e.seconds, nominal, len(names)))
		if err != nil {
			return err
		}
		st.progs, st.ops = progs, ops
		st.refs = references(progs, ops, e.nproc)
		st.compileMS = append(st.compileMS, float64(dur)/1e6)
		return nil
	})
	return st, secs, err
}

// opOut is what one batch op yields.
type opOut struct {
	instrs      uint64
	ivs         []*trace.Interval
	cov, errPct float64
	k           int
	macs        uint64
	set         *core.MarkerSet // marker_xinput: the op's markers
	pts         simpoint.Matrix // fixed_simpoint: the streamed projection
	w           []float64
	traceNS     float64 // fixed_simpoint: trace.Run wall time
}

// opStats collects the per-op figures the metrics summarize.
type opStats struct {
	wallMS                   []float64
	wallSec                  float64
	refInstrs                uint64
	cov, errPct              []float64
	markers, intervals, macs float64
	clusters                 float64
}

func (s *opStats) add(out *opOut, wall time.Duration) {
	s.wallMS = append(s.wallMS, float64(wall)/1e6)
	s.wallSec += wall.Seconds()
	s.refInstrs += out.instrs
	s.cov = append(s.cov, out.cov)
	s.errPct = append(s.errPct, out.errPct)
	if out.set != nil {
		s.markers += float64(len(out.set.Markers))
	}
	s.intervals += float64(len(out.ivs))
	s.macs += float64(out.macs)
	s.clusters += float64(out.k)
}

// perOp averages a sum over the ops that finished.
func (s *opStats) perOp(sum float64) float64 { return sum / float64(max(len(s.wallMS), 1)) }

// batchSpec is what distinguishes the two batch workloads.
type batchSpec struct {
	programs  []string
	nominal   float64 // nominal op seconds
	setupReps int
	ladderOps int // traced runs: ops followed by the ladder
	gen       func(seed uint64, n int) ([]batchOp, error)
	op        func(e *env, p *program, op batchOp, root int) (*opOut, error)
	// traced runs after each of the first ladderOps ops of a traced run.
	traced func(e *env, p *program, op batchOp, out *opOut, lad *ladder) error
	// checkFirst, when set, runs once after the ops on the first op.
	checkFirst func(e *env, p *program, op batchOp, out *opOut) error
	// layers adds the workload's own per-layer metrics.
	layers func(m *metrics, b *batchRun)
}

// batchRun is a finished batch run, for the per-layer report.
type batchRun struct {
	ops       []batchOp
	stats     opStats
	lad       ladder
	tr        *tracer
	compileMS []float64
	gcPerOp   float64
}

// runBatch sets up, runs every op timed, checks each against its
// reference runs, and reports.
func runBatch(e *env, spec batchSpec) (*result, error) {
	st, setupS, err := setupBatch(e, spec.setupReps, spec.programs, spec.nominal, spec.gen)
	if err != nil {
		return nil, err
	}
	res := &result{}
	b := &batchRun{ops: st.ops, tr: e.tr, compileMS: st.compileMS}
	traced := make([]uint64, len(st.ops))
	var first *opOut
	var mem memAcc
	rss := sampleRSS()
	for _, op := range st.ops {
		id := res.attempt()
		p := st.progs[op.Program]
		mem.begin()
		root := e.tr.start("op", op.Index, -1)
		t0 := time.Now()
		out, err := spec.op(e, p, op, root)
		wall := time.Since(t0)
		e.tr.end(root)
		mem.end()
		res.fail(id, err)
		if out == nil {
			continue
		}
		res.fail(id, checkTiling(out.ivs, out.instrs))
		traced[id] = out.instrs
		b.stats.add(out, wall)
		if id == 0 {
			first = out
		}
		if e.tr != nil && op.Index < spec.ladderOps {
			res.fail(id, spec.traced(e, p, op, out, &b.lad))
		}
	}
	allocMB, gcPerOp := mem.perOp(len(st.ops))
	rssMB := rss.end()
	b.gcPerOp = gcPerOp

	for i, op := range st.ops {
		if traced[i] != 0 {
			res.fail(i, checkReference(st.refs[inputKey(op)], traced[i]))
		}
	}
	if spec.checkFirst != nil && first != nil {
		op := st.ops[0]
		res.fail(0, spec.checkFirst(e, st.progs[op.Program], op, first))
	}
	if len(b.stats.wallMS) == 0 {
		return nil, fmt.Errorf("every op failed: %v", res.firstFailures(3))
	}
	batchE2E(res, &b.stats, setupS, rssMB, allocMB)
	if e.tr != nil {
		m := &res.layer
		layerLadder(m, &b.lad)
		layerSpans(m, e.tr, len(st.ops))
		m.set("trace.intervals", b.stats.perOp(b.stats.intervals), "count")
		m.set("simpoint.project.macs", b.stats.perOp(b.stats.macs), "count")
		m.set("simpoint.cluster.k", b.stats.perOp(b.stats.clusters), "count")
		m.set("compile.ms", median(b.compileMS), "ms")
		m.set("go.gc_cycles_per_op", b.gcPerOp, "count")
		spec.layers(m, b)
	}
	return res, nil
}

// batchE2E fills the end-to-end metrics of a batch workload.
func batchE2E(res *result, st *opStats, setupS, rssMB, allocMB float64) {
	m := &res.e2e
	m.set("setup_s", setupS, "s")
	m.set("minstr_per_s", float64(st.refInstrs)/st.wallSec/1e6, "Minstr/s")
	m.set("req_per_s", float64(len(st.wallMS))/st.wallSec, "req/s")
	m.set("op_ms_p50", median(st.wallMS), "ms")
	m.set("op_ms_tail", quantile(st.wallMS, tailPercentile(len(st.wallMS))/100), "ms")
	m.set("peak_rss_mb", rssMB, "MB")
	m.set("alloc_mb_per_op", allocMB, "MB")
	m.set("phase_cov_cpi", mean(st.cov), "ratio")
	m.set("simpoint_cpi_err_pct", interquartileMean(st.errPct), "%")
	res.info.set("tail_percentile", tailPercentile(len(st.wallMS)), "pct")
	res.info.set("error_rate", res.errorRate(), "ratio")
}

// checkTiling verifies that intervals tile [0, instrs) in order.
func checkTiling(ivs []*trace.Interval, instrs uint64) error {
	if len(ivs) == 0 {
		return fmt.Errorf("trace produced no intervals")
	}
	var at uint64
	for i, iv := range ivs {
		if iv.Index != i {
			return fmt.Errorf("interval %d has index %d", i, iv.Index)
		}
		if iv.Start != at || iv.End <= iv.Start {
			return fmt.Errorf("interval %d spans [%d,%d), expected to start at %d", i, iv.Start, iv.End, at)
		}
		at = iv.End
	}
	if at != instrs {
		return fmt.Errorf("intervals end at %d, trace counted %d instructions", at, instrs)
	}
	return nil
}

// reference is a ref input's bare-interpreter and stack-backend runs.
type reference struct {
	instrs   uint64
	out      []int64
	stackOut []int64
	err      error
}

func referenceRun(p *program, args []int64) reference {
	m := minivm.NewMachine(p.reg, nil)
	if _, err := m.Run(args...); err != nil {
		return reference{err: fmt.Errorf("bare run: %w", err)}
	}
	s := minivm.NewMachine(p.stack, nil)
	if _, err := s.Run(args...); err != nil {
		return reference{err: fmt.Errorf("stack-backend run: %w", err)}
	}
	return reference{instrs: m.Instructions(), out: m.Output(), stackOut: s.Output()}
}

// checkReference verifies an op against its input's reference runs: the
// guest out() checksum matches the stack backend's, and the trace counted
// exactly the bare interpreter's instructions.
func checkReference(ref reference, traced uint64) error {
	if ref.err != nil {
		return ref.err
	}
	if len(ref.out) == 0 || fmt.Sprint(ref.out) != fmt.Sprint(ref.stackOut) {
		return fmt.Errorf("guest out() %v differs from the stack backend's %v", ref.out, ref.stackOut)
	}
	if ref.instrs != traced {
		return fmt.Errorf("trace counted %d instructions, bare interpreter %d", traced, ref.instrs)
	}
	return nil
}

// references runs the reference pair for every distinct op input on up to
// workers goroutines.
func references(progs map[string]*program, ops []batchOp, workers int) map[string]reference {
	keys := map[string]batchOp{}
	for _, op := range ops {
		keys[inputKey(op)] = op
	}
	names := sortedKeys(keys)
	out := make([]reference, len(names))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				op := keys[names[i]]
				out[i] = referenceRun(progs[op.Program], op.Ref)
			}
		}()
	}
	for i := range names {
		next <- i
	}
	close(next)
	wg.Wait()
	refs := make(map[string]reference, len(names))
	for i, n := range names {
		refs[n] = out[i]
	}
	return refs
}

func inputKey(op batchOp) string { return fmt.Sprint(op.Program, op.Ref) }

// ladder accumulates the ablation ladder over a traced run: the op's ref
// input run bare, with all-events dispatch, with the timing model, with
// the cutter (detector or fixed cutter), traced without BBVs, and traced
// in full. Sums are in nanoseconds.
type ladder struct {
	instrs, trainInstrs                  uint64
	bare, dispatch, cpu, cut, skip, full float64
	memEvents, fires                     uint64
	serialEngine, parallelEngine         float64
	ops                                  int
	markers                              bool // the cutter is the marker detector
}

// timed runs fn in a ladder span and returns its wall time in ns. It
// collects garbage first, so no step pays for an earlier step's heap.
func timed(e *env, name string, op int, fn func() error) (float64, error) {
	runtime.GC()
	id := e.tr.start(name, op, -1)
	t0 := time.Now()
	err := fn()
	d := float64(time.Since(t0))
	e.tr.end(id)
	return d, err
}

// run times the ladder on one op's ref input. set is the op's marker set,
// or nil for fixed-length cutting. The steps start at a different one on
// each ladder, so no step always runs first.
func (l *ladder) run(e *env, p *program, op batchOp, set *core.MarkerSet) error {
	cfg := trace.Config{Prog: p.reg, Args: op.Ref, CPU: e.ucfg, Markers: set}
	if set == nil {
		cfg.FixedLen = fixedLen
	}
	skipCfg := cfg
	skipCfg.SkipBBV = true
	var instrs, memEvents, fires uint64
	var bare, disp, cpu, cut, skip, full float64
	steps := []struct {
		name string
		into *float64
		fn   func() error
	}{
		{"ladder.bare", &bare, func() error {
			m := minivm.NewMachine(p.reg, nil)
			_, err := m.Run(op.Ref...)
			instrs = m.Instructions()
			return err
		}},
		{"ladder.dispatch", &disp, func() error {
			_, err := minivm.NewMachine(p.reg, minivm.NopObserver{}).Run(op.Ref...)
			return err
		}},
		{"ladder.cpu", &cpu, func() error {
			m := minivm.NewMachine(p.reg, uarch.NewCPU(e.ucfg, p.reg))
			_, err := m.Run(op.Ref...)
			memEvents = m.MemRefs()
			return err
		}},
		{"ladder.cut", &cut, func() error {
			if set != nil {
				seq, _, err := core.DetectFirings(p.reg, set, op.Ref...)
				fires = uint64(len(seq))
				return err
			}
			_, err := minivm.NewMachine(p.reg, trace.NewFixedCutter(fixedLen, func(uint64) {})).Run(op.Ref...)
			return err
		}},
		{"ladder.trace_skipbbv", &skip, func() error {
			_, err := trace.Run(skipCfg)
			return err
		}},
		{"ladder.trace_full", &full, func() error {
			_, err := trace.Run(cfg)
			return err
		}},
	}
	for k := range steps {
		st := steps[(k+l.ops)%len(steps)]
		d, err := timed(e, st.name, op.Index, st.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", st.name, err)
		}
		*st.into = d
	}
	if set != nil {
		// Profiling runs on train: its per-instruction cost needs the
		// train input's instruction count.
		m := minivm.NewMachine(p.reg, nil)
		if _, err := m.Run(op.Train...); err != nil {
			return err
		}
		l.trainInstrs += m.Instructions()
	}
	l.markers = set != nil
	l.instrs += instrs
	l.memEvents += memEvents
	l.fires += fires
	l.bare += bare
	l.dispatch += disp
	l.cpu += cpu
	l.cut += cut
	l.skip += skip
	l.full += full
	l.ops++
	return nil
}

// perInstr converts a ladder sum to ns per ref instruction.
func (l *ladder) perInstr(ns float64) float64 {
	if l.instrs == 0 {
		return 0
	}
	return ns / float64(l.instrs)
}

// layerLadder reports the ladder-derived per-layer metrics. The layer
// costs are differences against the bare interpreter; the residual is what
// the full trace costs beyond interpreter + timing model + cutter + BBVs.
func layerLadder(m *metrics, l *ladder) {
	interp := l.perInstr(l.bare)
	cpu := l.perInstr(l.cpu - l.bare)
	cut := l.perInstr(l.cut - l.bare)
	bbvCost := l.perInstr(l.full - l.skip)
	full := l.perInstr(l.full)
	m.set("minivm.interp.ns_per_instr", interp, "ns/instr")
	m.set("minivm.dispatch.ns_per_instr", l.perInstr(l.dispatch-l.bare), "ns/instr")
	m.set("minivm.instrs_per_op", float64(l.instrs)/float64(max(l.ops, 1)), "count")
	m.set("uarch.cpu.ns_per_instr", cpu, "ns/instr")
	m.set("uarch.mem_events", float64(l.memEvents)/float64(max(l.ops, 1)), "count")
	if l.markers {
		m.set("core.detect.ns_per_instr", cut, "ns/instr")
		m.set("core.detect.fires", float64(l.fires)/float64(max(l.ops, 1)), "count")
	} else {
		m.set("trace.cutter.ns_per_instr", cut, "ns/instr")
	}
	m.set("bbv.ns_per_instr", bbvCost, "ns/instr")
	m.set("trace.full.ns_per_instr", full, "ns/instr")
	m.set("trace.residual.ns_per_instr", full-(interp+cpu+cut+bbvCost), "ns/instr")
}

// layerSpans reports span-derived per-layer metrics common to both batch
// workloads: each layer's time per op, so the layers plus the unattributed
// share add up to the op wall time.
func layerSpans(m *metrics, tr *tracer, ops int) {
	perOp := func(name string) float64 { return tr.totalMS(name) / float64(max(ops, 1)) }
	for _, l := range []string{"core.profile", "core.select", "trace.run", "simpoint.project",
		"simpoint.cluster", "simpoint.pick", "simpoint.cov"} {
		m.set(l+".ms", perOp(l), "ms")
	}
	m.set("trace.sink.busy_ms", perOp("trace.sink"), "ms")
	m.set("trace.op_ms_p50", median(tr.named("op")), "ms")
	m.set("unattributed_pct", tr.unattributedPct("op"), "%")
}

// clusterCPIErr runs PickPoints then Evaluate and returns the CPI error in
// percent.
func clusterCPIErr(cl *simpoint.Clustering, pts simpoint.Matrix, ivs []*trace.Interval, trueCPI float64) float64 {
	est := simpoint.Evaluate(simpoint.PickPoints(cl, pts), ivs, trueCPI, cl.K)
	return 100 * est.RelativeError
}

// checkQuality rejects degenerate analysis results.
func checkQuality(cl *simpoint.Clustering, n int, cov, errPct float64) error {
	if cl.K < 1 || len(cl.Assign) != n {
		return fmt.Errorf("clustering has K=%d and %d assignments for %d intervals", cl.K, len(cl.Assign), n)
	}
	if math.IsNaN(cov) || math.IsInf(cov, 0) || cov < 0 || math.IsNaN(errPct) || errPct < 0 {
		return fmt.Errorf("quality figures out of range: cov=%v err=%v%%", cov, errPct)
	}
	return nil
}
