package phasemark_test

import (
	"strings"
	"testing"

	"phasemark"
	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/workloads"
)

const demoSrc = `
array buf[16384];
proc phaseA(n) {
	var s = 0;
	for (var i = 0; i < n; i = i + 1) { s = s + buf[(i * 5) & 16383]; }
	return s;
}
proc phaseB(n) {
	var s = 1;
	for (var i = 0; i < n; i = i + 1) { s = s + (s >> 3) + i; }
	return s;
}
proc main(reps, n) {
	var s = 0;
	for (var r = 0; r < reps; r = r + 1) { s = s + phaseA(n) + phaseB(n); }
	out(s);
	return s;
}
`

func TestEndToEndPipeline(t *testing.T) {
	prog, err := phasemark.CompileSource(demoSrc, false)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := phasemark.Profile(prog, 6, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(graph.Nodes) == 0 || len(graph.Edges) == 0 {
		t.Fatal("empty graph")
	}
	set := phasemark.Select(graph, phasemark.SelectOptions{ILower: 50_000})
	if len(set.Markers) == 0 {
		t.Fatal("no markers selected")
	}
	// Cross-input application.
	res, err := phasemark.Segment(prog, set, 12, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) < 3 {
		t.Fatalf("only %d intervals", len(res.Intervals))
	}
	cov := phasemark.PhaseCoV(res.Intervals, phasemark.IntervalPhase, phasemark.CPIMetric)
	fixed, err := phasemark.SegmentFixed(prog, 50_000, 12, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	whole := phasemark.PhaseCoV(fixed.Intervals,
		func(*phasemark.Interval) int { return 0 }, phasemark.CPIMetric)
	if cov.CoV >= whole.CoV {
		t.Fatalf("marker phases CoV %v not below whole-program %v", cov.CoV, whole.CoV)
	}
}

func TestCrossBinaryFacade(t *testing.T) {
	plain, err := phasemark.CompileSource(demoSrc, false)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := phasemark.CompileSource(demoSrc, true)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := phasemark.Profile(plain, 4, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	set := phasemark.Select(graph, phasemark.SelectOptions{ILower: 20_000})
	mapped, n, err := phasemark.MapMarkers(set, plain, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(set.Markers) {
		t.Fatalf("mapped %d of %d markers", n, len(set.Markers))
	}
	t0, err := phasemark.MarkerTrace(plain, set, 4, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := phasemark.MarkerTrace(opt, mapped, 4, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(t0) == 0 || len(t0) != len(t1) {
		t.Fatalf("trace lengths: %d vs %d", len(t0), len(t1))
	}
	for i := range t0 {
		if t0[i] != t1[i] {
			t.Fatalf("traces differ at %d", i)
		}
	}
}

// TestSegmentRejectsInvalidMarkers is the regression test for a GroupN 0
// marker, which used to crash tracing with an integer divide by zero:
// Segment must return an error, without running, for any marker the
// detector cannot fire.
func TestSegmentRejectsInvalidMarkers(t *testing.T) {
	w, err := workloads.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog := w.MustCompile(false)
	graph, err := phasemark.Profile(prog, w.Train...)
	if err != nil {
		t.Fatal(err)
	}
	set := phasemark.Select(graph, phasemark.SelectOptions{ILower: 100_000})
	if len(set.Markers) == 0 {
		t.Fatal("no markers selected")
	}
	if _, err := phasemark.Segment(prog, set, w.Train...); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	loops := minivm.FindLoops(prog)
	nonHead := 0 // a block that heads no loop
	for loops.LoopAtHead(prog.BlockByID(nonHead)) != nil {
		nonHead++
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(*phasemark.Marker)
	}{
		{"groupn zero", "GroupN 0", func(m *phasemark.Marker) { m.GroupN = 0 }},
		{"site outside program", "not a block", func(m *phasemark.Marker) { m.Key.Site = prog.NumBlocks }},
		{"loop marker on a non-head", "heads no loop", func(m *phasemark.Marker) {
			m.Key.To = core.NodeKey{Kind: core.LoopHead, ID: nonHead}
			m.Key.Site = nonHead
		}},
	} {
		bad := *set
		bad.Markers = append([]phasemark.Marker(nil), set.Markers...)
		tc.mutate(&bad.Markers[len(bad.Markers)-1])
		_, err := phasemark.Segment(prog, &bad, w.Train...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Segment error %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
