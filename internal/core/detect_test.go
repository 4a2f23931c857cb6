package core

import (
	"math"
	"testing"
	"testing/quick"

	"phasemark/internal/minivm"
	"phasemark/internal/workloads"
)

// walkerOracle is the reference the Detector must reproduce: the
// walker-driven detect sink the Detector replaced. It fires on the
// profiling Walker's edge opens whose key a marker names (the first such
// marker, found through a site-indexed table), with GroupN applied. A
// restart is a fresh walk whose positions are offset by the instructions
// already run, which is what Detector.Restart promises.
type walkerOracle struct {
	set    *MarkerSet
	bySite [][]siteMarker
	seen   []uint64
	fired  []uint64
	base   uint64
	log    firingLog
}

func (o *walkerOracle) EdgeOpen(k EdgeKey, at uint64) {
	for _, sm := range o.bySite[k.Site] {
		if sm.key == k {
			i := sm.idx
			o.seen[i]++
			if (o.seen[i]-1)%o.set.Markers[i].GroupN == 0 {
				o.fired[i]++
				o.log.add(i, o.base+at)
			}
			return
		}
	}
}

func (o *walkerOracle) EdgeClose(EdgeKey, uint64) {}

// firingLog fingerprints a firing sequence in constant memory: its length,
// a running hash, and a bounded prefix to locate a divergence.
type firingLog struct {
	n    int
	hash uint64
	head []Firing
}

const firingLogHead = 1 << 12

func (l *firingLog) add(marker int, at uint64) {
	const prime = 1099511628211
	l.n++
	l.hash = (l.hash^uint64(marker))*prime ^ at
	l.hash *= prime
	if len(l.head) < firingLogHead {
		l.head = append(l.head, Firing{Marker: marker, At: at})
	}
}

// oracleFirings runs prog reps times under the walker oracle.
func oracleFirings(t *testing.T, prog *minivm.Program, set *MarkerSet, reps int, args []int64) *walkerOracle {
	t.Helper()
	o := &walkerOracle{
		set:    set,
		bySite: make([][]siteMarker, prog.NumBlocks),
		seen:   make([]uint64, len(set.Markers)),
		fired:  make([]uint64, len(set.Markers)),
	}
	for i, mk := range set.Markers {
		o.bySite[mk.Key.Site] = append(o.bySite[mk.Key.Site], siteMarker{key: mk.Key, idx: i})
	}
	loops := minivm.FindLoops(prog)
	for r := 0; r < reps; r++ {
		clear(o.seen)
		w := NewWalker(prog, loops, o)
		m := minivm.NewMachine(prog, w)
		if _, err := m.Run(args...); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		o.base += m.Instructions()
	}
	return o
}

// assertDetectorMatchesOracle runs prog reps times under one Detector
// (restarted between runs, as trace.Run's Scale amplifier does) and
// requires the walker oracle's exact (marker, at) sequence and per-marker
// fired counts.
func assertDetectorMatchesOracle(t *testing.T, name string, prog *minivm.Program, set *MarkerSet, reps int, args ...int64) {
	t.Helper()
	want := oracleFirings(t, prog, set, reps, args)
	var got firingLog
	d := NewDetector(prog, nil, set, func(marker int, at uint64) { got.add(marker, at) })
	m := minivm.NewMachine(prog, d)
	for r := 0; r < reps; r++ {
		if r > 0 {
			m.Reset()
			if err := d.Restart(); err != nil {
				t.Fatalf("%s: restart %d: %v", name, r, err)
			}
		}
		if _, err := m.Run(args...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for i := range got.head {
		if i >= len(want.log.head) || got.head[i] != want.log.head[i] {
			var w any = "nothing"
			if i < len(want.log.head) {
				w = want.log.head[i]
			}
			t.Fatalf("%s: firing %d: detector %v, walker %v", name, i, got.head[i], w)
		}
	}
	if got.n != want.log.n || got.hash != want.log.hash {
		t.Fatalf("%s: detector fired %d times (hash %x), walker %d (hash %x)",
			name, got.n, got.hash, want.log.n, want.log.hash)
	}
	for i := range set.Markers {
		if d.Fired(i) != want.fired[i] {
			t.Fatalf("%s: marker %d (%v) fired %d times, walker %d", name, i, set.Markers[i].Key, d.Fired(i), want.fired[i])
		}
	}
	if want.log.n == 0 {
		t.Fatalf("%s: nothing fired; the comparison is vacuous", name)
	}
}

// everyEdgeSet marks every edge of g, so every kind of traversal the
// walker opens is a firing, with GroupN cycling through 1..3. Each edge
// also gets a decoy marker with its nodes swapped at the same site, which
// fires only if the walker really opens that key.
func everyEdgeSet(g *Graph) *MarkerSet {
	set := &MarkerSet{}
	for i, e := range g.Edges {
		set.Markers = append(set.Markers, Marker{Key: e.Key, GroupN: uint64(1 + i%3)})
	}
	for _, e := range g.Edges {
		k := e.Key
		set.Markers = append(set.Markers, Marker{Key: EdgeKey{From: k.To, To: k.From, Site: k.Site}, GroupN: 1})
	}
	return set
}

func TestDetectorMatchesWalkerOnRandomPrograms(t *testing.T) {
	f := func(seed uint64) bool {
		prog, args := genProgram(t, seed)
		g := mustProfile(t, prog, args...)
		assertDetectorMatchesOracle(t, "every edge", prog, everyEdgeSet(g), 3, args...)
		set := SelectMarkers(g, SelectOptions{ILower: 200, MaxLimit: 5000})
		if len(set.Markers) > 0 {
			assertDetectorMatchesOracle(t, "limit selection", prog, set, 2, args...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mutualProgram enters a mutually recursive pair from both sides, so one
// call site opens a head edge on some calls and a recursive body edge on
// others.
const mutualProgram = `
proc even(n) { if (n == 0) { return 1; } return odd(n - 1); }
proc odd(n) { if (n == 0) { return 0; } return even(n - 1); }
proc main(k) {
	var s = 0;
	for (var i = 0; i < k; i = i + 1) { s = s + odd(i) + even(i); }
	return s;
}`

func TestDetectorMatchesWalkerOnRecursion(t *testing.T) {
	for _, opt := range []bool{false, true} {
		for _, src := range []string{recursiveProgram, mutualProgram} {
			prog := mustCompile(t, src, opt)
			g := mustProfile(t, prog, 12)
			assertDetectorMatchesOracle(t, "every edge", prog, everyEdgeSet(g), 2, 12)
		}
	}
}

// TestDetectorMatchesWalkerOnCallingConditions covers loops whose head
// block calls: the call itself begins the iteration, before the callee
// runs, and a loop with an empty body never opens one.
func TestDetectorMatchesWalkerOnCallingConditions(t *testing.T) {
	const src = `
proc below(i, n) { return i < n; }
proc main(n) {
	var s = 0;
	var i = 0;
	while (below(i, n)) {
		s = s + i;
		i = i + 1;
	}
	for (var j = 0; below(j, n); j = j + 1) {}
	return s;
}`
	for _, opt := range []bool{false, true} {
		prog := mustCompile(t, src, opt)
		g := mustProfile(t, prog, 40)
		assertDetectorMatchesOracle(t, "every edge", prog, everyEdgeSet(g), 2, 40)
	}
}

// TestDetectorMatchesWalkerOnWorkloads covers every workload's train input
// with its every-edge set, restarting once. Under -race or -short it runs
// once on the cross-input benchmark's four workloads.
func TestDetectorMatchesWalkerOnWorkloads(t *testing.T) {
	narrow := raceEnabled || testing.Short()
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			reps := 2
			if narrow {
				switch w.Name {
				case "gzip", "mcf", "vortex", "gcc":
				default:
					t.Skip("narrowed under -race/-short")
				}
				reps = 1
			}
			prog := w.MustCompile(false)
			g := mustProfile(t, prog, w.Train...)
			assertDetectorMatchesOracle(t, "every edge", prog, everyEdgeSet(g), reps, w.Train...)
		})
	}
}

func TestDetectorRestartRequiresBalancedRun(t *testing.T) {
	prog := mustCompile(t, recursiveProgram, false)
	g := mustProfile(t, prog, 12)
	d := NewDetector(prog, nil, everyEdgeSet(g), nil)
	m := minivm.NewMachine(prog, d)
	m.MaxInstrs = 500
	if _, err := m.Run(12); err == nil {
		t.Fatal("run under a 500-instruction limit finished")
	}
	if err := d.Restart(); err == nil {
		t.Fatal("restart after a truncated run succeeded")
	}
}

// plainSink is the profiler's edge update without the per-site table:
// every close hashes its key into the graph's edge map.
type plainSink struct{ g *Graph }

func (s plainSink) EdgeOpen(EdgeKey, uint64) {}

func (s plainSink) EdgeClose(k EdgeKey, hier uint64) { s.g.ensureEdge(k).Hier.Add(float64(hier)) }

// assertProfileBitEqual requires ProfileRun's graph to equal one built by
// plain ensureEdge lookups: node and edge creation order, adjacency order,
// and every edge statistic bit for bit.
func assertProfileBitEqual(t *testing.T, name string, prog *minivm.Program, args ...int64) {
	t.Helper()
	got := mustProfile(t, prog, args...)
	want := NewGraph(prog)
	w := NewWalker(prog, want.Loops, plainSink{g: want})
	if _, err := minivm.NewMachine(prog, w).Run(args...); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != len(want.Nodes) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d nodes / %d edges, want %d / %d", name, len(got.Nodes), len(got.Edges), len(want.Nodes), len(want.Edges))
	}
	for i, n := range want.Nodes {
		gn := got.Nodes[i]
		if gn.Key != n.Key || len(gn.In) != len(n.In) || len(gn.Out) != len(n.Out) {
			t.Fatalf("%s: node %d is %v (%d in, %d out), want %v (%d in, %d out)",
				name, i, gn.Key, len(gn.In), len(gn.Out), n.Key, len(n.In), len(n.Out))
		}
		for j := range n.In {
			if gn.In[j].Key != n.In[j].Key {
				t.Fatalf("%s: node %v in-edge %d is %v, want %v", name, n.Key, j, gn.In[j].Key, n.In[j].Key)
			}
		}
	}
	bits := func(e *Edge) [7]uint64 {
		h := &e.Hier
		return [7]uint64{e.Count(), math.Float64bits(e.Avg()), math.Float64bits(e.Max()),
			math.Float64bits(e.CoV()), math.Float64bits(h.Sum()), math.Float64bits(h.Min()),
			math.Float64bits(h.Variance())}
	}
	for i, e := range want.Edges {
		ge := got.Edges[i]
		if ge.Key != e.Key || bits(ge) != bits(e) {
			t.Fatalf("%s: edge %d is %v %v, want %v %v", name, i, ge.Key, bits(ge), e.Key, bits(e))
		}
	}
}

func TestProfileSiteTableBitEqual(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		prog, args := genProgram(t, seed)
		assertProfileBitEqual(t, "random program", prog, args...)
	}
	assertProfileBitEqual(t, "recursion", mustCompile(t, recursiveProgram, false), 12)
	assertProfileBitEqual(t, "mutual recursion", mustCompile(t, mutualProgram, false), 12)
	for _, name := range []string{"gzip", "mcf"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		assertProfileBitEqual(t, name, w.MustCompile(false), w.Train...)
	}
}

func TestInstrumentRejectsGroupNZero(t *testing.T) {
	prog := mustCompile(t, phasedProgram, false)
	set := SelectMarkers(mustProfile(t, prog, 10, 400), SelectOptions{ILower: 1000})
	if len(set.Markers) == 0 {
		t.Fatal("no markers")
	}
	set.Markers[0].GroupN = 0
	if _, err := Instrument(prog, set); err == nil {
		t.Fatal("Instrument accepted a GroupN 0 marker")
	}
}
