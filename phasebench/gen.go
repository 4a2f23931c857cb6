package main

import (
	"fmt"
	"math/rand"

	"phasemark/internal/workloads"
)

// Workload names, in the order the documentation lists them.
const (
	wlMarker = "marker_xinput"
	wlFixed  = "fixed_simpoint"
	wlMix    = "phased_mix"
)

var workloadNames = []string{wlMarker, wlFixed, wlMix}

// Program rotations. marker_xinput runs the call-heavy integer programs
// whose phases the call-loop walker finds; fixed_simpoint runs the FP loop
// nests of the cache-reconfiguration suite; phased_mix serves two programs.
var (
	markerPrograms = []string{"gzip", "mcf", "vortex", "gcc"}
	fixedPrograms  = []string{"applu", "swim", "mgrid"}
	mixPrograms    = []string{"gzip", "mcf"}
)

// Nominal per-op wall times on a 2-core x86 host. They turn --seconds into
// a fixed op count, so a run is a fixed list of ops (the quality metrics
// depend only on the seed and that list) that takes about --seconds.
const (
	markerNominalSec = 0.5
	fixedNominalSec  = 0.35
	mixNominalReqs   = 100  // requests per second of --seconds
	mixMinRequests   = 1000 // the 99th percentile needs ten samples beyond it
)

// Set-up repetitions; setup_s is their median. marker_xinput's set-up runs
// the reference pair on 40 distinct inputs (about 14 s on 2 cores), long
// enough to average its own noise, so it runs once.
const (
	setupRepsMarker = 1
	setupRepsFixed  = 3
	setupRepsMix    = 3
)

// Traced runs time the ablation ladder (about four ops' work) on the
// first ops only, whole rotations of every program, so a traced run stays
// well within its time limit.
const (
	ladderOpsMarker = 20
	ladderOpsFixed  = 12
)

// splitmix64 is the seed mixer behind every generated value: the same
// (seed, stream, index) always yields the same number.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// derive mixes the run seed with a stream tag and an index.
func derive(seed uint64, stream string, i int) uint64 {
	h := splitmix64(seed)
	for _, c := range []byte(stream) {
		h = splitmix64(h ^ uint64(c))
	}
	return splitmix64(h ^ uint64(i))
}

// guestSeed is a positive 31-bit guest PRNG seed.
func guestSeed(seed uint64, stream string, i int) int64 {
	return int64(derive(seed, stream, i)%(1<<31-1)) + 1
}

// withSeed copies a workload input and replaces its last argument, the
// program's PRNG seed.
func withSeed(args []int64, s int64) []int64 {
	out := append([]int64(nil), args...)
	out[len(out)-1] = s
	return out
}

// batchOp is one op of a batch workload: a program, its generated inputs
// and the SimPoint seed of the op's clustering.
type batchOp struct {
	Index   int
	Program string
	Train   []int64 // marker_xinput only
	Ref     []int64
	SPSeed  uint64
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// opCount turns --seconds into a whole number of rotations.
func opCount(seconds float64, nominal float64, rotation int) int {
	n := int(seconds/nominal + 0.5)
	return rotation * max(1, ceilDiv(n, rotation))
}

// genMarkerOps rotates over the integer programs; every op gets its own
// train and ref input.
func genMarkerOps(seed uint64, n int) ([]batchOp, error) {
	ops := make([]batchOp, n)
	for i := range ops {
		w, err := workloads.ByName(markerPrograms[i%len(markerPrograms)])
		if err != nil {
			return nil, err
		}
		ops[i] = batchOp{
			Index:   i,
			Program: w.Name,
			Train:   withSeed(w.Train, guestSeed(seed, "train", i)),
			Ref:     withSeed(w.Ref, guestSeed(seed, "ref", i)),
			SPSeed:  derive(seed, "simpoint", i),
		}
	}
	return ops, nil
}

// genFixedOps rotates over the FP loop nests. Each program gets one ref
// input per run (their phase structure does not depend on the PRNG seed);
// every op clusters with its own SimPoint seed.
func genFixedOps(seed uint64, n int) ([]batchOp, error) {
	ops := make([]batchOp, n)
	for i := range ops {
		p := i % len(fixedPrograms)
		w, err := workloads.ByName(fixedPrograms[p])
		if err != nil {
			return nil, err
		}
		ops[i] = batchOp{
			Index:   i,
			Program: w.Name,
			Ref:     withSeed(w.Ref, guestSeed(seed, "ref", p)),
			SPSeed:  derive(seed, "simpoint", i),
		}
	}
	return ops, nil
}

// Request classes of phased_mix.
const (
	classHit     = "hit"     // a warmed request, served from the store
	classWrite   = "write"   // a unique select (ilower sweep): cheap compute + store write
	classCompute = "compute" // a unique cluster seed: a full trace + clustering
)

// Shares of phased_mix requests, in thousandths. Computes are 3% so that
// the 99th percentile lies inside the compute class.
const (
	writePerMille   = 80
	computePerMille = 30
)

// mixRequest is one generated phased_mix request.
type mixRequest struct {
	Class    string
	Endpoint string
	Body     string
	Hot      int    // index into the hot set (hits)
	Program  string // workload the request names
}

// hotRequest is one member of the warmed hot set.
type hotRequest struct {
	Endpoint string
	Body     string
	Program  string
}

// Segment and clustering knobs of phased_mix. They stay inside the planned
// Canon() bounds (fixed_len >= 100k, kmax <= 30).
const (
	mixFixedLen = 100_000
	mixKMax     = 10
)

func clusterBody(program string, seed uint64) string {
	return fmt.Sprintf(`{"segment":{"workload":%q,"fixed_len":%d},"kmax":%d,"seed":%d}`, program, mixFixedLen, mixKMax, seed)
}

// hotSet is every endpoint on every mix program: the requests warmed at
// set-up and read back as hits.
func hotSet() []hotRequest {
	var hs []hotRequest
	for _, p := range mixPrograms {
		hs = append(hs,
			hotRequest{"/v1/profile", fmt.Sprintf(`{"workload":%q,"input":"train"}`, p), p},
			hotRequest{"/v1/select", fmt.Sprintf(`{"workload":%q,"input":"train"}`, p), p},
			hotRequest{"/v1/segment", fmt.Sprintf(`{"workload":%q,"select":{"input":"train"}}`, p), p},
			hotRequest{"/v1/cluster", clusterBody(p, 1), p},
		)
	}
	return hs
}

// genMix builds n requests with exact class counts, shuffled by the seed.
// Writes and computes are unique within the run: each write selects with
// its own ilower, each compute clusters with its own seed.
func genMix(seed uint64, n int) []mixRequest {
	writes := n * writePerMille / 1000
	computes := n * computePerMille / 1000
	hs := hotSet()
	rng := rand.New(rand.NewSource(int64(derive(seed, "mix", 0) >> 1)))
	reqs := make([]mixRequest, 0, n)
	usedILower := map[uint64]bool{}
	for k := 0; k < writes; k++ {
		p := mixPrograms[k%len(mixPrograms)]
		var il uint64
		for il == 0 || usedILower[il] {
			il = 100_001 + uint64(rng.Int63n(900_000))
		}
		usedILower[il] = true
		reqs = append(reqs, mixRequest{Class: classWrite, Endpoint: "/v1/select", Program: p,
			Body: fmt.Sprintf(`{"workload":%q,"input":"train","options":{"ilower":%d}}`, p, il)})
	}
	usedSeed := map[uint64]bool{1: true}
	for k := 0; k < computes; k++ {
		p := mixPrograms[k%len(mixPrograms)]
		var s uint64
		for s == 0 || usedSeed[s] {
			s = 2 + uint64(rng.Int63n(1<<30))
		}
		usedSeed[s] = true
		reqs = append(reqs, mixRequest{Class: classCompute, Endpoint: "/v1/cluster", Program: p, Body: clusterBody(p, s)})
	}
	for len(reqs) < n {
		h := rng.Intn(len(hs))
		reqs = append(reqs, mixRequest{Class: classHit, Endpoint: hs[h].Endpoint, Body: hs[h].Body, Hot: h, Program: hs[h].Program})
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

func mixCount(seconds float64) int {
	return max(mixMinRequests, int(seconds*mixNominalReqs))
}
