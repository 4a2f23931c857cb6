package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"phasemark/internal/simpoint"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
)

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	gens := map[string]func(uint64) any{
		wlMarker: func(s uint64) any { ops, _ := genMarkerOps(s, 8); return ops },
		wlFixed:  func(s uint64) any { ops, _ := genFixedOps(s, 6); return ops },
		wlMix:    func(s uint64) any { return genMix(s, 200) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different lists", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", name)
		}
	}
}

func TestMixHasExactClassSharesAndUniqueWrites(t *testing.T) {
	reqs := genMix(3, 1200)
	count := map[string]int{}
	bodies := map[string]bool{}
	for _, r := range reqs {
		count[r.Class]++
		if r.Class == classHit {
			continue
		}
		if bodies[r.Body] {
			t.Fatalf("%s request repeats: %s", r.Class, r.Body)
		}
		bodies[r.Body] = true
	}
	if count[classWrite] != 96 || count[classCompute] != 36 || count[classHit] != 1068 {
		t.Fatalf("class counts %v, want 96 writes, 36 computes, 1068 hits", count)
	}
	// The 99th percentile must fall in the compute class: more computes
	// than samples beyond it.
	if beyond := 1200 - int(0.99*1200); count[classCompute] <= beyond {
		t.Fatalf("%d computes cannot cover the %d samples beyond p99", count[classCompute], beyond)
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1200, 99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond", c.n, p)
		}
	}
	if m := interquartileMean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); m != 3.5 {
		t.Errorf("interquartile mean %v, want 3.5", m)
	}
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", q)
	}
}

func TestTallyCountsEachFailedOpOnce(t *testing.T) {
	var tl tally
	a, b, c := tl.attempt(), tl.attempt(), tl.attempt()
	tl.fail(a, nil)
	tl.fail(b, fmt.Errorf("first"))
	tl.fail(b, fmt.Errorf("second"))
	tl.fail(c, nil)
	if tl.attempted != 3 || tl.failures() != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", tl.attempted, tl.failures())
	}
	if r := tl.errorRate(); math.Abs(r-1.0/3) > 1e-12 {
		t.Fatalf("error rate %v, want 1/3", r)
	}
	if got := tl.firstFailures(5); len(got) != 1 || !strings.Contains(got[0], "first") {
		t.Fatalf("failures %v, want the first reason only", got)
	}
}

func tiled(n int) []*trace.Interval {
	ivs := make([]*trace.Interval, n)
	for i := range ivs {
		ivs[i] = &trace.Interval{Index: i, Start: uint64(i * 10), End: uint64(i*10 + 10)}
	}
	return ivs
}

// Each output check must reject a corrupted result.
func TestChecksRejectCorruptedResults(t *testing.T) {
	if err := checkTiling(tiled(5), 50); err != nil {
		t.Fatalf("clean tiling rejected: %v", err)
	}
	for name, corrupt := range map[string]func([]*trace.Interval) uint64{
		"gap":      func(ivs []*trace.Interval) uint64 { ivs[2].Start++; return 50 },
		"overlap":  func(ivs []*trace.Interval) uint64 { ivs[3].Start--; return 50 },
		"short":    func(ivs []*trace.Interval) uint64 { return 51 },
		"index":    func(ivs []*trace.Interval) uint64 { ivs[1].Index = 7; return 50 },
		"empty":    func(ivs []*trace.Interval) uint64 { ivs[4].End = ivs[4].Start; return 40 },
		"not-zero": func(ivs []*trace.Interval) uint64 { ivs[0].Start = 1; return 50 },
	} {
		ivs := tiled(5)
		if err := checkTiling(ivs, corrupt(ivs)); err == nil {
			t.Errorf("tiling check passed a %s corruption", name)
		}
	}

	good := reference{instrs: 100, out: []int64{42}, stackOut: []int64{42}}
	if err := checkReference(good, 100); err != nil {
		t.Fatalf("clean reference rejected: %v", err)
	}
	for name, ref := range map[string]reference{
		"checksum": {instrs: 100, out: []int64{43}, stackOut: []int64{42}},
		"no-out":   {instrs: 100},
		"run-err":  {err: fmt.Errorf("boom")},
	} {
		if err := checkReference(ref, 100); err == nil {
			t.Errorf("reference check passed a %s corruption", name)
		}
	}
	if err := checkReference(good, 101); err == nil {
		t.Error("reference check passed a wrong instruction count")
	}

	pts := simpoint.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	w := []float64{0.25, 0.75}
	if err := equalProjection(pts, w, pts, w); err != nil {
		t.Fatalf("equal projections rejected: %v", err)
	}
	flipped := simpoint.MatrixFromRows([][]float64{{1, 2}, {3, math.Nextafter(4, 5)}})
	if err := equalProjection(flipped, w, pts, w); err == nil {
		t.Error("projection check passed a one-ulp change")
	}
	if err := equalProjection(pts, []float64{0.25, 0.7500000001}, pts, w); err == nil {
		t.Error("projection check passed a changed weight")
	}
	if err := equalProjection(simpoint.MatrixFromRows([][]float64{{1, 2}}), w[:1], pts, w); err == nil {
		t.Error("projection check passed a missing row")
	}

	body := []byte(`{"k":3}` + "\n")
	if err := checkBody("x", body, bytes.Clone(body)); err != nil {
		t.Fatalf("equal bodies rejected: %v", err)
	}
	if err := checkBody("x", []byte(`{"k":4}`+"\n"), body); err == nil {
		t.Error("body check passed a changed byte")
	}

	seg := &trace.Result{Intervals: tiled(3)}
	if _, err := clusterQuality([]byte(`{"k":1,"intervals":3,"assign":[0,0]}`), seg); err == nil {
		t.Error("cluster check passed a short assignment")
	}
	if _, err := clusterQuality([]byte(`{"k":1,"intervals":3,"assign":[0,0,0]}`), seg); err != nil {
		t.Errorf("cluster check rejected a whole assignment: %v", err)
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("req.queue;dur=0.010, store.get;dur=0.250, junk, store.get;dur=0.5")
	want := map[string]float64{"req.queue": 0.01, "store.get": 0.75}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
}

func TestUnattributedShare(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 3, Parent: 2, Name: "c", Start: 30, End: 90}, // grandchild: not counted
		{ID: 4, Parent: 0, Name: "d", Start: 80, End: 90},
	}}
	if got := tr.unattributedPct("op"); math.Abs(got-40) > 1e-9 {
		t.Fatalf("unattributed %v%%, want 40%%", got)
	}
}

// BENCHMARK.json must declare exactly the metrics and workloads the
// command prints.
func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("workloads %v, command runs %v", wl, workloadNames)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d printed", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{}, {"--workload", "nope"}, {"--workload", wlFixed, "--trace", "2"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no result", args, code, out.String())
		}
	}
}

// A short run of each workload passes its checks and prints every
// declared metric.
func TestSmokeEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	for _, c := range []struct {
		workload string
		traced   bool
	}{{wlMarker, false}, {wlFixed, true}, {wlMix, true}} {
		t.Run(fmt.Sprintf("%s/trace=%v", c.workload, c.traced), func(t *testing.T) {
			e := &env{workload: c.workload, seed: 11, seconds: 0.5, nproc: 2, ucfg: uarch.DefaultConfig(),
				workDir: t.TempDir()}
			if c.traced {
				e.tr = newTracer()
			}
			res, err := runWorkload(e)
			if err != nil {
				t.Fatal(err)
			}
			if res.failures() != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d ops failed: %v", res.failures(), res.attempted, res.firstFailures(5))
			}
			var out, errb bytes.Buffer
			if code := report(e, res, &out, &errb); code != 0 {
				t.Fatalf("report exit %d: %s", code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var o output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			want := len(e2eMetrics)
			if c.traced {
				want = len(layerMetrics)
			}
			if !o.Correct || len(o.Metrics) != want {
				t.Fatalf("correct=%v with %d metrics, want %d", o.Correct, len(o.Metrics), want)
			}
		})
	}
}
