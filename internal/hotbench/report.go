package hotbench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
)

// Schema identifies the BENCH_hotpath.json record layout. See
// EXPERIMENTS.md for the field-by-field description (documented next to
// phasemark/bench-obs/v1). v2 extends v1 with the analysis stages
// (project, cluster); the record layout itself is unchanged, so v1 files
// load and are upgraded in place on the next write.
const Schema = "phasemark/bench-hotpath/v2"

// schemaV1 is the pre-analysis-stage layout v2 supersedes.
const schemaV1 = "phasemark/bench-hotpath/v1"

// Report is the committed hot-path performance record: one run per
// labelled measurement (e.g. the seed implementation vs. the optimized
// one), each covering every stage.
type Report struct {
	Schema string `json:"schema"`
	Runs   []Run  `json:"runs"`
}

// Run is one labelled measurement of all stages.
type Run struct {
	Label string `json:"label"`
	Go    string `json:"go"`
	// Host identifies the machine the run was measured on; runs recorded
	// before it existed have none.
	Host   *Host         `json:"host,omitempty"`
	Stages []StageResult `json:"stages"`
}

// Host is a run's machine fingerprint, so stage figures are never
// compared across machines unknowingly.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GOARCH     string `json:"goarch"`
}

// currentHost fingerprints this machine. The CPU model comes from
// /proc/cpuinfo where there is one.
func currentHost() *Host {
	h := &Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GOARCH: runtime.GOARCH}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// StageResult is one stage's measurement. Work units are dynamic
// instructions for the execution stages and memory events for cpu_onmem;
// Unit names the work unit so WorkPerSec reads unambiguously.
type StageResult struct {
	Name        string  `json:"name"`
	Desc        string  `json:"desc"`
	Unit        string  `json:"unit"`
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"bytes_op"`
	AllocsPerOp int64   `json:"allocs_op"`
	WorkPerOp   uint64  `json:"work_per_op"`
	WorkPerSec  float64 `json:"work_per_sec"`
}

// MeasureStage benchmarks one stage via testing.Benchmark (which picks the
// iteration count the way `go test -bench` does).
func MeasureStage(st Stage) (StageResult, error) {
	run, err := st.New()
	if err != nil {
		return StageResult{}, fmt.Errorf("hotbench: %s: %w", st.Name, err)
	}
	var work uint64
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := run()
			if err != nil {
				runErr = err
				b.Fatal(err)
			}
			work = w
		}
	})
	if runErr != nil {
		return StageResult{}, fmt.Errorf("hotbench: %s: %w", st.Name, runErr)
	}
	sr := StageResult{
		Name:        st.Name,
		Desc:        st.Desc,
		Unit:        st.Unit,
		NsPerOp:     float64(res.NsPerOp()),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		WorkPerOp:   work,
	}
	if secs := res.T.Seconds(); secs > 0 {
		sr.WorkPerSec = float64(work) * float64(res.N) / secs
	}
	return sr, nil
}

// Measure benchmarks the given stages (every stage when nil) and returns
// them as one labelled run, reporting progress on w (one line per stage).
func Measure(label string, stages []Stage, w io.Writer) (Run, error) {
	if stages == nil {
		stages = Stages()
	}
	run := Run{Label: label, Go: runtime.Version(), Host: currentHost()}
	for _, st := range stages {
		sr, err := MeasureStage(st)
		if err != nil {
			return Run{}, err
		}
		fmt.Fprintf(w, "  %-16s %12.1f ns/op  %8d allocs/op  %10.1f %s\n",
			st.Name, sr.NsPerOp, sr.AllocsPerOp, sr.WorkPerSec/1e6, sr.Unit)
		run.Stages = append(run.Stages, sr)
	}
	return run, nil
}

// LoadReport reads a bench-hotpath report, returning an empty one when the
// file does not exist. A file with a different schema is an error, not a
// silent overwrite.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &Report{Schema: Schema}, nil
	}
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("hotbench: parsing %s: %w", path, err)
	}
	if r.Schema == schemaV1 {
		r.Schema = Schema // v1 runs are a subset of v2; upgrade in place
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("hotbench: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// SetRun merges run into the report. A new label appends; an existing
// label is updated stage-wise — stages present in run replace their
// namesakes, stages absent from run (e.g. when `-bench-stages` measured a
// subset) are preserved — so re-measuring never discards history.
func (r *Report) SetRun(run Run) {
	for i := range r.Runs {
		if r.Runs[i].Label != run.Label {
			continue
		}
		old := &r.Runs[i]
		old.Go, old.Host = run.Go, run.Host
		for _, sr := range run.Stages {
			replaced := false
			for j := range old.Stages {
				if old.Stages[j].Name == sr.Name {
					old.Stages[j] = sr
					replaced = true
					break
				}
			}
			if !replaced {
				old.Stages = append(old.Stages, sr)
			}
		}
		return
	}
	r.Runs = append(r.Runs, run)
}

// Write renders the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
