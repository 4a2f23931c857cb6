package main

import "fmt"

// e2eMetrics are the end-to-end metrics every untraced run prints, on
// every workload (README.md defines each one per workload).
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"minstr_per_s", "Minstr/s"},
	{"req_per_s", "req/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
	{"phase_cov_cpi", "ratio"},
	{"simpoint_cpi_err_pct", "%"},
}

// layerMetrics are the per-layer metrics every traced run prints. A layer
// a workload does not exercise reads 0, which is the prediction for it.
var layerMetrics = []struct{ name, unit string }{
	{"minivm.interp.ns_per_instr", "ns/instr"},
	{"minivm.dispatch.ns_per_instr", "ns/instr"},
	{"minivm.instrs_per_op", "count"},
	{"core.profile.ms", "ms"},
	{"core.profile.ns_per_instr", "ns/instr"},
	{"core.select.ms", "ms"},
	{"core.markers", "count"},
	{"core.detect.ns_per_instr", "ns/instr"},
	{"core.detect.fires", "count"},
	{"uarch.cpu.ns_per_instr", "ns/instr"},
	{"uarch.mem_events", "count"},
	{"bbv.ns_per_instr", "ns/instr"},
	{"trace.cutter.ns_per_instr", "ns/instr"},
	{"trace.full.ns_per_instr", "ns/instr"},
	{"trace.residual.ns_per_instr", "ns/instr"},
	{"trace.run.ms", "ms"},
	{"trace.intervals", "count"},
	{"trace.sink.busy_ms", "ms"},
	{"trace.engine.speedup", "x"},
	{"simpoint.project.ms", "ms"},
	{"simpoint.project.macs", "count"},
	{"simpoint.cluster.ms", "ms"},
	{"simpoint.cluster.k", "count"},
	{"simpoint.pick.ms", "ms"},
	{"simpoint.cov.ms", "ms"},
	{"service.queue.ms_p99", "ms"},
	{"service.compute.ms_p50", "ms"},
	{"service.compute.count", "count"},
	{"service.shed", "count"},
	{"service.http.ms_p50", "ms"},
	{"store.get.ms_p50", "ms"},
	{"store.write.ms_p50", "ms"},
	{"store.hit_ratio", "ratio"},
	{"store.joined", "count"},
	{"compile.ms", "ms"},
	{"go.gc_cycles_per_op", "count"},
	{"unattributed_pct", "%"},
	{"trace.op_ms_p50", "ms"},
}

// complete checks a run's metrics against the declared set: a declared
// end-to-end metric must be measured; a per-layer metric the workload does
// not exercise is filled with 0. Units must match the declaration.
func complete(m *metrics, declared []struct{ name, unit string }, fillZero bool) error {
	want := map[string]bool{}
	for _, d := range declared {
		want[d.name] = true
		v, ok := m.vals[d.name]
		switch {
		case !ok && fillZero:
			m.set(d.name, 0, d.unit)
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case v.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, declared %q", d.name, v.Unit, d.unit)
		}
	}
	for _, n := range m.names {
		if !want[n] {
			return fmt.Errorf("metric %s is not declared", n)
		}
	}
	return nil
}
