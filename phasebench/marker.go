package main

import (
	"fmt"

	"phasemark/internal/core"
	"phasemark/internal/service"
	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
)

// markerOp is the paper's cross-input method on one input pair: profile on
// train, select markers with phased's defaults, cut the ref run at marker
// firings, project and cluster the intervals (SimPoint VLI), and measure
// per-phase CPI homogeneity (§3.1).
func markerOp(e *env, p *program, op batchOp, root int) (*opOut, error) {
	tr := e.tr
	var g *core.Graph
	var err error
	tr.do("core.profile", op.Index, root, func() { g, err = core.ProfileRun(p.reg, op.Train...) })
	if err != nil {
		return nil, err
	}
	out := &opOut{}
	tr.do("core.select", op.Index, root, func() { out.set = core.SelectMarkers(g, markerSelect) })
	if len(out.set.Markers) == 0 {
		return nil, fmt.Errorf("%s: selection found no markers", p.name)
	}
	var res *trace.Result
	tr.do("trace.run", op.Index, root, func() {
		res, err = trace.Run(trace.Config{Prog: p.reg, Args: op.Ref, CPU: e.ucfg, Markers: out.set})
	})
	if err != nil {
		return nil, err
	}
	out.instrs, out.ivs = res.Instructions, res.Intervals
	var pts simpoint.Matrix
	var w []float64
	tr.do("simpoint.project", op.Index, root, func() { pts, w = simpoint.ProjectIntervals(res.Intervals, res.NumBlocks, dims, op.SPSeed) })
	opts := simpoint.Options{KMax: service.DefaultKMax, Dims: dims, Seed: op.SPSeed,
		Restarts: service.DefaultRestarts, MaxIters: service.DefaultMaxIters, Workers: e.nproc}
	var cl *simpoint.Clustering
	tr.do("simpoint.cluster", op.Index, root, func() { cl = simpoint.Cluster(pts, w, opts) })
	tr.do("simpoint.pick", op.Index, root, func() { out.errPct = clusterCPIErr(cl, pts, res.Intervals, res.TrueCPI()) })
	tr.do("simpoint.cov", op.Index, root, func() {
		out.cov = trace.PhaseCoV(res.Intervals, trace.IntervalPhase, trace.CPIMetric).CoV
	})
	out.k = cl.K
	for _, iv := range res.Intervals {
		out.macs += uint64(len(iv.BBV.Idx)) * dims
	}
	return out, checkQuality(cl, len(res.Intervals), out.cov, out.errPct)
}

var markerSpec = batchSpec{
	programs:  markerPrograms,
	nominal:   markerNominalSec,
	setupReps: setupRepsMarker,
	ladderOps: ladderOpsMarker,
	gen:       genMarkerOps,
	op:        markerOp,
	traced: func(e *env, p *program, op batchOp, out *opOut, lad *ladder) error {
		return lad.run(e, p, op, out.set)
	},
	layers: func(m *metrics, b *batchRun) {
		profileMS := b.tr.totalMS("core.profile") / float64(max(len(b.ops), 1))
		trainPerOp := float64(b.lad.trainInstrs) / float64(max(b.lad.ops, 1))
		if trainPerOp > 0 {
			m.set("core.profile.ns_per_instr", 1e6*profileMS/trainPerOp, "ns/instr")
		}
		m.set("core.markers", b.stats.perOp(b.stats.markers), "count")
	},
}

func runMarker(e *env) (*result, error) { return runBatch(e, markerSpec) }
