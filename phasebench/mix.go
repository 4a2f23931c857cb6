package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"phasemark/internal/core"
	"phasemark/internal/minivm"
	"phasemark/internal/service"
	"phasemark/internal/simpoint"
	"phasemark/internal/store"
	"phasemark/internal/trace"
	"phasemark/internal/uarch"
	"phasemark/internal/workloads"
)

const (
	mixClients    = 2
	clientTimeout = 120 * time.Second
)

// mixServer is an in-process phased over a fresh store, reached over
// loopback HTTP.
type mixServer struct {
	dir    string
	srv    *service.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startMix(e *env) (*mixServer, error) {
	dir, err := os.MkdirTemp(e.workDir, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	m := &mixServer{
		dir:    dir,
		srv:    service.New(service.Config{Store: st, Workers: e.nproc}),
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout:   clientTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: mixClients, MaxConnsPerHost: mixClients},
		},
	}
	m.hs = &http.Server{Handler: m.srv.Handler()}
	go func() { m.served <- m.hs.Serve(ln) }()
	return m, nil
}

// stop drains the server, waits for its serve loop to end and deletes the
// store.
func (m *mixServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	m.srv.StartDrain()
	err := m.hs.Shutdown(ctx)
	if serr := <-m.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	m.client.CloseIdleConnections()
	if rerr := os.RemoveAll(m.dir); err == nil {
		err = rerr
	}
	return err
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	body   []byte
	cache  string
	stages map[string]float64 // Server-Timing, ms
	wall   time.Duration
}

func (m *mixServer) post(endpoint, body string) (reply, error) {
	t0 := time.Now()
	resp, err := m.client.Post(m.base+endpoint, "application/json", strings.NewReader(body))
	if err != nil {
		return reply{wall: time.Since(t0)}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: b, wall: time.Since(t0),
		cache: resp.Header.Get("X-Phased-Cache"), stages: parseServerTiming(resp.Header.Get("Server-Timing"))}
	if err != nil {
		return r, err
	}
	if r.status != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %s", endpoint, r.status, bytes.TrimSpace(b))
	}
	return r, nil
}

// parseServerTiming reads `name;dur=<ms>` entries.
func parseServerTiming(h string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(h, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(part), ";")
		if !ok {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "dur="); ok {
				if d, err := strconv.ParseFloat(v, 64); err == nil {
					out[name] += d
				}
			}
		}
	}
	return out
}

// serverStages are the request root's direct children: the part of a
// request's wall time the server accounts for.
var serverStages = []string{service.SpanQueue, store.SpanGet, store.SpanCompute, store.SpanWrite, store.SpanJoin}

// warm sends every hot request once; each must be computed fresh.
func (m *mixServer) warm(hs []hotRequest) ([][]byte, error) {
	bodies := make([][]byte, len(hs))
	for i, h := range hs {
		r, err := m.post(h.Endpoint, h.Body)
		if err != nil {
			return nil, fmt.Errorf("warming %s %s: %w", h.Endpoint, h.Body, err)
		}
		if r.cache != store.Computed.String() {
			return nil, fmt.Errorf("warming %s %s: cache %q on a fresh store", h.Endpoint, h.Body, r.cache)
		}
		bodies[i] = r.body
	}
	return bodies, nil
}

// checkBody compares a response body with the expected bytes.
func checkBody(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: body differs from the expected %d bytes (got %d)", what, len(want), len(got))
	}
	return nil
}

// mixRecord is one request's outcome.
type mixRecord struct {
	rep reply
	err error
}

func runMix(e *env) (*result, error) {
	hs := hotSet()
	var srv *mixServer
	var progs map[string]*program
	var hot [][]byte
	var compileMS []float64
	setupS, err := timeSetup(setupRepsMix, func() error {
		if srv != nil {
			err := srv.stop()
			srv = nil
			if err != nil {
				return err
			}
		}
		var dur time.Duration
		var err error
		if progs, dur, err = compilePrograms(mixPrograms); err != nil {
			return err
		}
		compileMS = append(compileMS, float64(dur)/1e6)
		if srv, err = startMix(e); err != nil {
			return err
		}
		bodies, err := srv.warm(hs)
		if err != nil {
			return err
		}
		for i := range hot {
			if err := checkBody("warm "+hs[i].Endpoint+" across set-ups", bodies[i], hot[i]); err != nil {
				return err
			}
		}
		hot = bodies
		return nil
	})
	if err != nil {
		if srv != nil {
			_ = srv.stop() // the set-up error is the one to report
		}
		return nil, err
	}

	n := mixCount(e.seconds)
	reqs := genMix(e.seed, n)
	recs := make([]mixRecord, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	var mem memAcc
	rss := sampleRSS()
	mem.begin()
	t0 := time.Now()
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				id := e.tr.start("request", i, -1)
				r, err := srv.post(reqs[i].Endpoint, reqs[i].Body)
				e.tr.end(id)
				if err == nil && reqs[i].Class == classHit {
					err = checkBody("hit "+reqs[i].Endpoint, r.body, hot[reqs[i].Hot])
					// A hit read concurrently with the same key's read joins it.
					if err == nil && r.cache != store.Hit.String() && r.cache != store.Joined.String() {
						err = fmt.Errorf("warmed %s served as %q", reqs[i].Endpoint, r.cache)
					}
					r.body = nil
				}
				recs[i] = mixRecord{rep: r, err: err}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)
	mem.end()
	rssMB := rss.end()
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stopping phased: %w", err)
	}

	res := &result{}
	for i := range recs {
		res.fail(res.attempt(), recs[i].err)
	}
	direct, err := directMix(hs, progs)
	if err != nil {
		return nil, err
	}
	// One body per endpoint must equal the library's own result.
	for i, h := range hs {
		if want, ok := direct.bodies[i]; ok {
			res.fail(0, checkBody("direct "+h.Endpoint, hot[i], want))
		}
	}
	var cov, errPct []float64
	var instrs uint64
	for i, r := range reqs {
		if r.Class != classCompute || recs[i].err != nil {
			continue
		}
		c, ivErr := clusterQuality(recs[i].rep.body, direct.fixed[r.Program])
		res.fail(i, ivErr)
		if ivErr == nil {
			cov = append(cov, c.cov)
			errPct = append(errPct, c.errPct)
			instrs += direct.fixed[r.Program].Instructions
		}
	}
	mixMetrics(e, res, reqs, recs, wall, setupS, rssMB, &mem, compileMS, cov, errPct, instrs)
	return res, nil
}

// directResults are the library's own answers for the mix's requests.
type directResults struct {
	bodies map[int][]byte           // hot-set index -> expected body
	fixed  map[string]*trace.Result // program -> fixed-cut ref trace of the cluster segment
}

// directMix computes, straight from the library, the response to every
// endpoint of the hot set for the first program, and the fixed-cut ref
// trace every cluster request of each program classifies.
func directMix(hs []hotRequest, progs map[string]*program) (*directResults, error) {
	d := &directResults{bodies: map[int][]byte{}, fixed: map[string]*trace.Result{}}
	for _, name := range mixPrograms {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		prog := progs[name].reg
		fres, err := trace.Run(trace.Config{Prog: prog, Args: w.Ref, CPU: uarch.DefaultConfig(), FixedLen: mixFixedLen})
		if err != nil {
			return nil, err
		}
		d.fixed[name] = fres
		if name != mixPrograms[0] {
			continue
		}
		var set *core.MarkerSet
		for i, h := range hs {
			if h.Program != name {
				continue
			}
			body, err := directBody(h, prog, w, fres, &set)
			if err != nil {
				return nil, fmt.Errorf("direct %s: %w", h.Endpoint, err)
			}
			d.bodies[i] = body
		}
	}
	return d, nil
}

// directBody builds one endpoint's response with the library calls the
// service makes, in the service's canonical encoding. set carries the
// select result to the segment request.
func directBody(h hotRequest, prog *minivm.Program, w *workloads.Workload, fixed *trace.Result, set **core.MarkerSet) ([]byte, error) {
	body := strings.NewReader(h.Body)
	switch h.Endpoint {
	case service.EndpointProfile:
		req, err := service.DecodeProfileRequest(body)
		if err != nil {
			return nil, err
		}
		g, err := core.ProfileRun(prog, w.Train...)
		if err != nil {
			return nil, err
		}
		return service.Encode(service.NewProfileResponse(req, g)), nil
	case service.EndpointSelect:
		req, err := service.DecodeSelectRequest(body)
		if err != nil {
			return nil, err
		}
		g, err := core.ProfileRun(prog, w.Train...)
		if err != nil {
			return nil, err
		}
		*set = core.SelectMarkers(g, req.Options.SelectOptions())
		return service.Encode(service.NewSelectResponse(req, *set)), nil
	case service.EndpointSegment:
		req, err := service.DecodeSegmentRequest(body)
		if err != nil {
			return nil, err
		}
		if *set == nil {
			return nil, fmt.Errorf("segment before select in the hot set")
		}
		res, err := trace.Run(trace.Config{Prog: prog, Args: w.Ref, CPU: uarch.DefaultConfig(), Markers: *set})
		if err != nil {
			return nil, err
		}
		return service.Encode(service.NewSegmentResponse(req, res)), nil
	case service.EndpointCluster:
		req, err := service.DecodeClusterRequest(body)
		if err != nil {
			return nil, err
		}
		c := simpoint.Classify(fixed, service.ClusterOptions(req))
		return service.Encode(service.NewClusterResponse(req, fixed, c)), nil
	}
	return nil, fmt.Errorf("no direct path for %s", h.Endpoint)
}

// quality is one computed cluster response's phase quality.
type quality struct{ cov, errPct float64 }

// clusterQuality reads a cluster response and measures its classification
// on the segment it clustered: the §3.1 CPI CoV of its phase assignment and
// its SimPoint CPI error.
func clusterQuality(body []byte, seg *trace.Result) (quality, error) {
	var resp service.ClusterResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return quality{}, fmt.Errorf("cluster response: %w", err)
	}
	if resp.Intervals != len(seg.Intervals) || len(resp.Assign) != len(seg.Intervals) || resp.K < 1 {
		return quality{}, fmt.Errorf("cluster response covers %d intervals (%d assigned, K=%d), segment has %d",
			resp.Intervals, len(resp.Assign), resp.K, len(seg.Intervals))
	}
	cov := trace.PhaseCoV(seg.Intervals, func(iv *trace.Interval) int { return resp.Assign[iv.Index] }, trace.CPIMetric).CoV
	return quality{cov: cov, errPct: 100 * resp.RelError}, nil
}

func mixMetrics(e *env, res *result, reqs []mixRequest, recs []mixRecord, wall time.Duration, setupS, rss float64,
	mem *memAcc, compileMS, cov, errPct []float64, instrs uint64) {
	n := len(recs)
	var lat []float64
	byClass := map[string][]float64{}
	var queue, computeMS, getMS, writeMS, httpMS []float64
	var computed, hits, joined, shed int
	for i, r := range recs {
		ms := float64(r.rep.wall) / 1e6
		lat = append(lat, ms)
		byClass[reqs[i].Class] = append(byClass[reqs[i].Class], ms)
		if r.rep.status == http.StatusTooManyRequests || r.rep.status == http.StatusServiceUnavailable {
			shed++
		}
		st := r.rep.stages
		queue = append(queue, st[service.SpanQueue])
		switch r.rep.cache {
		case store.Hit.String():
			hits++
			getMS = append(getMS, st[store.SpanGet])
			server := 0.0
			for _, s := range serverStages {
				server += st[s]
			}
			httpMS = append(httpMS, ms-server)
		case store.Computed.String():
			computed++
			if reqs[i].Class == classCompute {
				computeMS = append(computeMS, st[store.SpanCompute])
			}
			writeMS = append(writeMS, st[store.SpanWrite])
		case store.Joined.String():
			joined++
		}
	}
	m := &res.e2e
	m.set("setup_s", setupS, "s")
	m.set("minstr_per_s", float64(instrs)/wall.Seconds()/1e6, "Minstr/s")
	m.set("req_per_s", float64(n)/wall.Seconds(), "req/s")
	m.set("op_ms_p50", median(lat), "ms")
	m.set("op_ms_tail", quantile(lat, tailPercentile(n)/100), "ms")
	m.set("peak_rss_mb", rss, "MB")
	allocMB, gcPerOp := mem.perOp(n)
	m.set("alloc_mb_per_op", allocMB, "MB")
	m.set("phase_cov_cpi", mean(cov), "ratio")
	m.set("simpoint_cpi_err_pct", interquartileMean(errPct), "%")
	res.info.set("tail_percentile", tailPercentile(n), "pct")
	res.info.set("error_rate", res.errorRate(), "ratio")
	for _, c := range []string{classHit, classWrite, classCompute} {
		res.info.set("req_ms_p50."+c, median(byClass[c]), "ms")
		res.info.set("requests."+c, float64(len(byClass[c])), "count")
	}

	if e.tr == nil {
		return
	}
	l := &res.layer
	q := func(xs []float64, p float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return quantile(xs, p)
	}
	l.set("service.queue.ms_p99", q(queue, 0.99), "ms")
	l.set("service.compute.ms_p50", q(computeMS, 0.5), "ms")
	l.set("service.compute.count", float64(computed), "count")
	l.set("service.shed", float64(shed), "count")
	l.set("service.http.ms_p50", q(httpMS, 0.5), "ms")
	l.set("store.get.ms_p50", q(getMS, 0.5), "ms")
	l.set("store.write.ms_p50", q(writeMS, 0.5), "ms")
	l.set("store.hit_ratio", float64(hits)/float64(max(n, 1)), "ratio")
	l.set("store.joined", float64(joined), "count")
	l.set("compile.ms", median(compileMS), "ms")
	l.set("go.gc_cycles_per_op", gcPerOp, "count")
	l.set("trace.op_ms_p50", median(e.tr.named("request")), "ms")
}
