package main

import (
	"fmt"
	"math"
	"time"

	"phasemark/internal/bbv"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
)

// fixedOp is the SimPoint baseline on one ref input: a 10k-instruction
// fixed-cut trace streamed on the pipeline-parallel engine into the online
// projector, then clustering with KMax=30, simulation-point picking and
// the CPI estimate. It never runs the profiler, selector or detector.
// workers=0 runs the same op on the serial stream (the engine baseline).
func fixedOp(e *env, p *program, op batchOp, root, workers int) (*opOut, error) {
	tr := e.tr
	out := &opOut{}
	proj := simpoint.NewStreamProjector(p.reg.NumBlocks, dims, op.SPSeed)
	store := make([]trace.Interval, 0, 4096)
	traceID := tr.start("trace.run", op.Index, root)
	t0 := time.Now()
	res, err := trace.Run(trace.Config{
		Prog: p.reg, Args: op.Ref, CPU: e.ucfg, FixedLen: fixedLen, Workers: workers,
		Sink: func(chunk []trace.Interval) error {
			sid := tr.start("trace.sink", op.Index, traceID)
			tr.do("simpoint.project", op.Index, sid, func() { proj.ObserveChunkPar(chunk, workers) })
			for i := range chunk {
				out.macs += uint64(len(chunk[i].BBV.Idx)) * dims
				// Keep the interval without its BBV, which lives in the
				// tracer's recycled arena.
				store = append(store, chunk[i])
				store[len(store)-1].BBV = bbv.Vector{}
			}
			tr.end(sid)
			return nil
		},
	})
	out.traceNS = float64(time.Since(t0))
	tr.end(traceID)
	if err != nil {
		return nil, err
	}
	out.instrs = res.Instructions
	out.ivs = make([]*trace.Interval, len(store))
	for i := range store {
		out.ivs[i] = &store[i]
	}
	out.pts, out.w = proj.Matrix()
	opts := simpoint.Options{KMax: fixedKMax, Dims: dims, Seed: op.SPSeed, Workers: e.nproc}
	var cl *simpoint.Clustering
	tr.do("simpoint.cluster", op.Index, root, func() { cl = simpoint.Cluster(out.pts, out.w, opts) })
	if cl.K < 1 || len(cl.Assign) != len(out.ivs) {
		return out, fmt.Errorf("clustering has K=%d and %d assignments for %d intervals", cl.K, len(cl.Assign), len(out.ivs))
	}
	tr.do("simpoint.pick", op.Index, root, func() { out.errPct = clusterCPIErr(cl, out.pts, out.ivs, res.TrueCPI()) })
	tr.do("simpoint.cov", op.Index, root, func() {
		out.cov = trace.PhaseCoV(out.ivs, func(iv *trace.Interval) int { return cl.Assign[iv.Index] }, trace.CPIMetric).CoV
	})
	out.k = cl.K
	return out, checkQuality(cl, len(out.ivs), out.cov, out.errPct)
}

// checkProjection verifies that the engine's streamed projection is
// bit-equal to the materializing ProjectIntervals over a serial trace of
// the same input.
func checkProjection(e *env, p *program, op batchOp, out *opOut) error {
	res, err := trace.Run(trace.Config{Prog: p.reg, Args: op.Ref, CPU: e.ucfg, FixedLen: fixedLen})
	if err != nil {
		return err
	}
	want, wantW := simpoint.ProjectIntervals(res.Intervals, res.NumBlocks, dims, op.SPSeed)
	return equalProjection(out.pts, out.w, want, wantW)
}

func equalProjection(pts simpoint.Matrix, w []float64, want simpoint.Matrix, wantW []float64) error {
	if pts.N != want.N || pts.D != want.D || len(pts.Data) != len(want.Data) || len(w) != len(wantW) {
		return fmt.Errorf("streamed projection is %dx%d, materialized %dx%d", pts.N, pts.D, want.N, want.D)
	}
	for i := range want.Data {
		if math.Float64bits(pts.Data[i]) != math.Float64bits(want.Data[i]) {
			return fmt.Errorf("streamed projection differs at element %d: %v vs %v", i, pts.Data[i], want.Data[i])
		}
	}
	for i := range wantW {
		if math.Float64bits(w[i]) != math.Float64bits(wantW[i]) {
			return fmt.Errorf("streamed weight %d differs: %v vs %v", i, w[i], wantW[i])
		}
	}
	return nil
}

var fixedSpec = batchSpec{
	programs:  fixedPrograms,
	nominal:   fixedNominalSec,
	setupReps: setupRepsFixed,
	ladderOps: ladderOpsFixed,
	gen:       genFixedOps,
	op: func(e *env, p *program, op batchOp, root int) (*opOut, error) {
		return fixedOp(e, p, op, root, e.nproc)
	},
	// The ladder, then the engine baseline: the same streamed op at
	// Workers=0, untraced.
	traced: func(e *env, p *program, op batchOp, out *opOut, lad *ladder) error {
		if err := lad.run(e, p, op, nil); err != nil {
			return err
		}
		serial, err := fixedOp(&env{nproc: e.nproc, ucfg: e.ucfg}, p, op, -1, 0)
		if err != nil {
			return err
		}
		lad.serialEngine += serial.traceNS
		lad.parallelEngine += out.traceNS
		return nil
	},
	checkFirst: checkProjection,
	layers: func(m *metrics, b *batchRun) {
		if b.lad.parallelEngine > 0 {
			m.set("trace.engine.speedup", b.lad.serialEngine/b.lad.parallelEngine, "x")
		}
	},
}

func runFixed(e *env) (*result, error) { return runBatch(e, fixedSpec) }
