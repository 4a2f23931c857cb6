package trace

import (
	"fmt"
	"strings"
	"testing"

	"phasemark/internal/uarch"
)

// streamRun runs cfg in streaming mode and returns the flattened
// interval stream (deep-copied) plus the result.
func streamRun(t *testing.T, cfg Config) ([]Interval, *Result) {
	t.Helper()
	var got []Interval
	cfg.Sink = func(chunk []Interval) error {
		if cfg.ChunkSize > 0 && len(chunk) > cfg.ChunkSize {
			t.Errorf("chunk of %d exceeds ChunkSize %d", len(chunk), cfg.ChunkSize)
		}
		got = append(got, copyIntervals(chunk)...)
		return nil
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

// equalStreams asserts two flattened streams are identical in every
// field, including each BBV entry — the engine's bit-identity contract.
func equalStreams(t *testing.T, got, want []Interval, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d intervals, serial stream has %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Index != w.Index || g.Start != w.Start || g.End != w.End ||
			g.PhaseID != w.PhaseID || g.Perf != w.Perf {
			t.Fatalf("%s: interval %d differs: %+v vs %+v", label, i, *g, *w)
		}
		if len(g.BBV.Idx) != len(w.BBV.Idx) {
			t.Fatalf("%s: interval %d BBV size differs", label, i)
		}
		for j := range g.BBV.Idx {
			if g.BBV.Idx[j] != w.BBV.Idx[j] || g.BBV.Val[j] != w.BBV.Val[j] {
				t.Fatalf("%s: interval %d BBV entry %d differs", label, i, j)
			}
		}
	}
}

// The pipeline-parallel engine must produce a byte-identical interval
// stream and identical totals at every worker count and chunk size, in
// both cutting modes, with and without BBV collection, at scale 1
// (record/replay split) and scale 5 (rep-parallel workers). Run under
// -race this also exercises the ring handoffs for data races.
func TestEngineParallelDeterminism(t *testing.T) {
	for _, mode := range []string{"marker", "fixed"} {
		for _, scale := range []int{1, 5} {
			t.Run(fmt.Sprintf("%s/scale%d", mode, scale), func(t *testing.T) {
				base, _ := compileAndMark(t, 50_000)
				if mode == "fixed" {
					base.Markers = nil
					base.FixedLen = 20_000
				}
				base.Scale = scale
				for _, skip := range []bool{false, true} {
					for _, chunk := range []int{1, 7, 256} {
						ref := *base
						ref.SkipBBV = skip
						ref.ChunkSize = chunk
						want, wantRes := streamRun(t, ref)
						if len(want) < 3 {
							t.Fatalf("skipBBV=%v chunk %d: reference stream has only %d intervals", skip, chunk, len(want))
						}
						for _, workers := range []int{1, 4, 16} {
							par := ref
							par.Workers = workers
							got, res := streamRun(t, par)
							label := fmt.Sprintf("skipBBV=%v chunk=%d workers=%d", skip, chunk, workers)
							equalStreams(t, got, want, label)
							if res.Instructions != wantRes.Instructions || res.Total != wantRes.Total ||
								res.MarkerFires != wantRes.MarkerFires || res.NumBlocks != wantRes.NumBlocks {
								t.Fatalf("%s: totals differ: %+v vs %+v", label, res, wantRes)
							}
							if res.Intervals != nil {
								t.Fatalf("%s: engine run materialized intervals", label)
							}
						}
					}
				}
			})
		}
	}
}

// A sink error must abort an engine run and surface from Run in both
// regimes, without deadlocking producer or workers.
func TestEngineSinkError(t *testing.T) {
	for _, scale := range []int{1, 5} {
		t.Run(fmt.Sprintf("scale%d", scale), func(t *testing.T) {
			cfg, _ := compileAndMark(t, 50_000)
			cfg.Scale = scale
			cfg.ChunkSize = 2
			cfg.Workers = 4
			cfg.Sink = func(chunk []Interval) error { return fmt.Errorf("sink full") }
			if _, err := Run(*cfg); err == nil || !strings.Contains(err.Error(), "sink full") {
				t.Fatalf("err = %v, want wrapped sink error", err)
			}
		})
	}
}

// Negative Workers is a configuration error, not a clamp.
func TestEngineWorkersValidation(t *testing.T) {
	cfg, _ := compileAndMark(t, 50_000)
	cfg.Workers = -1
	cfg.Sink = func([]Interval) error { return nil }
	if _, err := Run(*cfg); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("err = %v, want negative-Workers error", err)
	}
}

// synthMetricChunk builds n deterministic intervals with nontrivial
// Perf counters and a few distinct phases.
func synthMetricChunk(n int) []Interval {
	out := make([]Interval, n)
	var at uint64
	for i := range out {
		ln := uint64(100 + i%7*13)
		out[i] = Interval{
			Index: i, Start: at, End: at + ln, PhaseID: i % 3,
			Perf: uarch.Counters{Instrs: ln, Cycles: ln + uint64(i%5)*10,
				L1Acc: ln / 2, L1Miss: uint64(i % 9)},
		}
		at += ln
	}
	return out
}

// CoVAccumulator.ObserveChunkPar must be bit-identical to ObserveChunk
// at any worker count, and allocation-free per chunk on the inline path
// once every phase has been seen.
func TestCoVObserveChunkParBitIdentical(t *testing.T) {
	chunk := synthMetricChunk(257)
	ref := NewCoVAccumulator(IntervalPhase, CPIMetric)
	ref.ObserveChunk(chunk)
	want := ref.Result()
	for _, workers := range []int{1, 4, 16} {
		a := NewCoVAccumulator(IntervalPhase, CPIMetric)
		a.ObserveChunkPar(chunk, workers)
		if got := a.Result(); got != want {
			t.Fatalf("workers=%d: %+v, want %+v", workers, got, want)
		}
	}

	a := NewCoVAccumulator(IntervalPhase, CPIMetric)
	a.ObserveChunkPar(chunk, 1) // all phases seen; scratch warm
	if allocs := testing.AllocsPerRun(100, func() {
		a.ObserveChunkPar(chunk, 1)
	}); allocs != 0 {
		t.Fatalf("steady-state ObserveChunkPar allocates %v per chunk, want 0", allocs)
	}
}

// Scale repetitions are independent cold executions: every repetition
// of a scaled run must reproduce the single run's interval sequence
// exactly (rebased onto its tile), in both cutting modes. This is the
// property that lets repetitions run on any worker in any order.
func TestScaleColdRepetitions(t *testing.T) {
	for _, mode := range []string{"marker", "fixed"} {
		t.Run(mode, func(t *testing.T) {
			cfg, _ := compileAndMark(t, 50_000)
			if mode == "fixed" {
				cfg.Markers = nil
				cfg.FixedLen = 20_000
			}
			single, err := Run(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Scale = 3
			amp, err := Run(*cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := len(single.Intervals)
			if len(amp.Intervals) != 3*n {
				t.Fatalf("scaled run has %d intervals, want 3×%d", len(amp.Intervals), n)
			}
			if amp.MarkerFires != 3*single.MarkerFires {
				t.Fatalf("scaled fires %d, want exactly 3×%d", amp.MarkerFires, single.MarkerFires)
			}
			for rep := 0; rep < 3; rep++ {
				instrBase := uint64(rep) * single.Instructions
				for i, w := range single.Intervals {
					g := amp.Intervals[rep*n+i]
					if g.Start != w.Start+instrBase || g.End != w.End+instrBase ||
						g.PhaseID != w.PhaseID || g.Perf != w.Perf {
						t.Fatalf("rep %d interval %d differs from single run: %+v vs %+v",
							rep, i, *g, *w)
					}
				}
			}
		})
	}
}
