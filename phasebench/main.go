// Command phasebench is the phasemark benchmark: one command that runs a
// named workload through the system's public packages, checks every
// output, and prints each metric by name with its unit. The last line of
// standard output is the result:
//
//	{"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; --trace 1 is a
// separate run that records spans around every call into a layer, times
// the ablation ladder on each op's input, and reports the per-layer set.
// See README.md for the metric tables and how to run it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"phasemark/internal/uarch"
)

// env is one benchmark invocation's settings.
type env struct {
	workload string
	seed     uint64
	seconds  float64
	nproc    int
	tr       *tracer // nil in untraced runs
	ucfg     uarch.Config
	// workDir holds scratch files (the phased_mix store).
	workDir string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order for the human-readable table.
type metrics struct {
	names []string
	vals  map[string]metric
}

func (m *metrics) set(name string, value float64, unit string) {
	if m.vals == nil {
		m.vals = map[string]metric{}
	}
	if _, dup := m.vals[name]; !dup {
		m.names = append(m.names, name)
	}
	m.vals[name] = metric{Value: value, Unit: unit}
}

// result is a finished run.
type result struct {
	tally
	e2e   metrics // untraced runs
	layer metrics // traced runs
	info  metrics // extra figures printed to stderr only
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("phasebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "run length; fixes the op count through each workload's nominal op time")
	traced := fs.Int("trace", 0, "1 records layer spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "phasebench: need --workload in {%s}, --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames, ", "))
		return 2
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		nproc:    runtime.NumCPU(),
		ucfg:     uarch.DefaultConfig(),
		workDir:  ".bench_build",
	}
	if *traced == 1 {
		e.tr = newTracer()
	}
	if err := os.MkdirAll(e.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "phasebench: %v\n", err)
		return 1
	}
	res, err := runWorkload(e)
	if err != nil {
		fmt.Fprintf(stderr, "phasebench: %s: %v\n", e.workload, err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(e.workDir, fmt.Sprintf("spans-%s-%d.json", e.workload, e.seed))
		if err := e.tr.writeChrome(path); err != nil {
			fmt.Fprintf(stderr, "phasebench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s (%d)\n", path, len(e.tr.spans))
	}
	return report(e, res, stdout, stderr)
}

func runWorkload(e *env) (*result, error) {
	switch e.workload {
	case wlMarker:
		return runMarker(e)
	case wlFixed:
		return runFixed(e)
	default:
		return runMix(e)
	}
}

// report prints the fingerprint, a human-readable table on stderr and the
// result line. A failed check makes the exit code 1.
func report(e *env, res *result, stdout, stderr io.Writer) int {
	shown, declared := &res.e2e, e2eMetrics
	if e.tr != nil {
		shown, declared = &res.layer, layerMetrics
	}
	if err := complete(shown, declared, e.tr != nil); err != nil {
		fmt.Fprintf(stderr, "phasebench: %v\n", err)
		return 1
	}
	fp := fingerprint(e, res.attempted)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	fmt.Fprintf(stderr, "== phasebench %s seed=%d attempted=%d failed=%d error_rate=%g\n",
		e.workload, e.seed, res.attempted, res.failures(), res.errorRate())
	for _, set := range []*metrics{shown, &res.info} {
		for _, n := range set.names {
			v := set.vals[n]
			fmt.Fprintf(stderr, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
		}
	}
	for _, r := range res.firstFailures(10) {
		fmt.Fprintf(stderr, "  FAILED %s\n", r)
	}
	out := output{
		Correct:   res.failures() == 0,
		Attempted: res.attempted,
		Failed:    res.failures(),
		Metrics:   shown.vals,
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "phasebench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

// fingerprint identifies the machine and build a result was measured on.
func fingerprint(e *env, ops int) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   e.workload,
		"seed":       e.seed,
		"ops":        ops,
		"trace":      e.tr != nil,
		"nproc":      e.nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"dirty":      dirty,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// procStatusMB reads a kB field of /proc/self/status (VmRSS, VmHWM) in MB.
func procStatusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler records the peak resident set over the timed ops alone:
// VmHWM would also count set-up, which runs every reference input.
type rssSampler struct {
	stop chan struct{}
	peak chan float64
}

const rssEvery = 20 * time.Millisecond

func sampleRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		peak := procStatusMB("VmRSS")
		for {
			select {
			case <-s.stop:
				s.peak <- max(peak, procStatusMB("VmRSS"))
				return
			case <-t.C:
				peak = max(peak, procStatusMB("VmRSS"))
			}
		}
	}()
	return s
}

// end stops the sampler and returns the peak in MB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	return <-s.peak
}

// memAcc sums allocation and GC activity over the ops alone, leaving out
// set-up, checks and the traced run's ladder.
type memAcc struct {
	ms        runtime.MemStats
	alloc, gc uint64
}

func (a *memAcc) begin() { runtime.ReadMemStats(&a.ms) }

func (a *memAcc) end() {
	before := a.ms
	runtime.ReadMemStats(&a.ms)
	a.alloc += a.ms.TotalAlloc - before.TotalAlloc
	a.gc += uint64(a.ms.NumGC - before.NumGC)
}

// perOp returns MB allocated and GC cycles per op.
func (a *memAcc) perOp(ops int) (allocMB, gcCycles float64) {
	n := float64(max(ops, 1))
	return float64(a.alloc) / (1 << 20) / n, float64(a.gc) / n
}

// timeSetup runs setup reps times and returns the median wall time in
// seconds; the last rep's state is kept by the caller's closure.
func timeSetup(reps int, setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// sortedKeys returns a map's keys in order (deterministic reports).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
