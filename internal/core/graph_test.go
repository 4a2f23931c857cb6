package core

import (
	"testing"

	"phasemark/internal/compile"
	"phasemark/internal/minivm"
)

func mustCompile(t *testing.T, src string, opt bool) *minivm.Program {
	t.Helper()
	prog, err := compile.CompileSource(src, compile.Options{Optimize: opt})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func mustProfile(t *testing.T, prog *minivm.Program, args ...int64) *Graph {
	t.Helper()
	g, err := ProfileRun(prog, args...)
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	return g
}

// paperExample mirrors the paper's Figure 1: foo contains a loop calling X
// or Y depending on a condition, then calls X once after the loop; X calls
// Z. Here main plays the role of foo's caller.
const paperExample = `
proc main(iters, reps) {
	for (var r = 0; r < reps; r = r + 1) {
		foo(iters, r);
	}
	return 0;
}
proc foo(iters, r) {
	var i = 0;
	while (i < iters) {
		if (i % 2 == 0) { x(i); } else { y(i); }
		i = i + 1;
	}
	x(r);
	return 0;
}
proc x(v) { return z(v) + 1; }
proc y(v) {
	var s = 0;
	for (var k = 0; k < 10; k = k + 1) { s = s + k * v; }
	return s;
}
proc z(v) { return v * 3 + 1; }
`

func findNode(t *testing.T, g *Graph, kind NodeKind, procName string) *Node {
	t.Helper()
	pr := g.Prog.Proc(procName)
	if pr == nil {
		t.Fatalf("no proc %q", procName)
	}
	n := g.NodeByKey(NodeKey{Kind: kind, ID: pr.ID})
	if n == nil {
		t.Fatalf("no %v node for %q", kind, procName)
	}
	return n
}

func inCount(n *Node) uint64 {
	var c uint64
	for _, e := range n.In {
		c += e.Count()
	}
	return c
}

func TestGraphPaperExampleStructure(t *testing.T) {
	prog := mustCompile(t, paperExample, false)
	const iters, reps = 10, 4
	g := mustProfile(t, prog, iters, reps)

	// foo is called reps times; its head and body edges each traverse reps
	// times (no recursion: head and body carry identical information).
	fooHead := findNode(t, g, ProcHead, "foo")
	fooBody := findNode(t, g, ProcBody, "foo")
	if got := inCount(fooHead); got != reps {
		t.Errorf("foo head in-count = %d, want %d", got, reps)
	}
	if got := inCount(fooBody); got != reps {
		t.Errorf("foo body in-count = %d, want %d", got, reps)
	}

	// x is called from two distinct sites: inside the loop (iters/2 per
	// foo call) and after the loop (once per foo call). The sites must be
	// distinct edges into x's head.
	xHead := findNode(t, g, ProcHead, "x")
	if len(xHead.In) != 2 {
		t.Fatalf("x head has %d in-edges, want 2 (two call sites)", len(xHead.In))
	}
	var fromLoop, fromFoo *Edge
	for _, e := range xHead.In {
		switch e.From.Key.Kind {
		case LoopBody:
			fromLoop = e
		case ProcBody:
			fromFoo = e
		}
	}
	if fromLoop == nil || fromFoo == nil {
		t.Fatalf("x head in-edges have wrong sources: %v, %v", xHead.In[0].From.Label(), xHead.In[1].From.Label())
	}
	if got := fromLoop.Count(); got != reps*iters/2 {
		t.Errorf("loop-body->x count = %d, want %d", got, reps*iters/2)
	}
	if got := fromFoo.Count(); got != reps {
		t.Errorf("foo-body->x count = %d, want %d", got, reps)
	}

	// z is called once per x call; its hierarchical count should be small
	// and perfectly stable (z is straight-line), so CoV == 0.
	zHead := findNode(t, g, ProcHead, "z")
	if got := inCount(zHead); got != reps*iters/2+reps {
		t.Errorf("z head in-count = %d, want %d", got, reps*iters/2+reps)
	}
	for _, e := range zHead.In {
		if e.CoV() != 0 {
			t.Errorf("z in-edge CoV = %v, want 0 (straight-line callee)", e.CoV())
		}
	}

	// The while loop in foo: head entered reps times, body iterates
	// iters times per entry.
	var loopHead *Node
	for _, n := range g.Nodes {
		if n.Key.Kind == LoopHead && n.Loop.Proc.Name == "foo" {
			loopHead = n
		}
	}
	if loopHead == nil {
		t.Fatal("no loop-head node in foo")
	}
	if got := inCount(loopHead); got != reps {
		t.Errorf("loop head entries = %d, want %d", got, reps)
	}
	if len(loopHead.Out) != 1 {
		t.Fatalf("loop head must have exactly one child, got %d", len(loopHead.Out))
	}
	bodyEdge := loopHead.Out[0]
	if bodyEdge.To.Key.Kind != LoopBody {
		t.Fatalf("loop head child is %v, want loop-body", bodyEdge.To.Key.Kind)
	}
	if got := bodyEdge.Count(); got != reps*iters {
		t.Errorf("loop iterations = %d, want %d", got, reps*iters)
	}
}

func TestHeadHasExactlyOneChild(t *testing.T) {
	prog := mustCompile(t, paperExample, true)
	g := mustProfile(t, prog, 12, 3)
	for _, n := range g.Nodes {
		if n.Key.Kind != ProcHead && n.Key.Kind != LoopHead {
			continue
		}
		kinds := map[NodeKey]bool{}
		for _, e := range n.Out {
			kinds[e.To.Key] = true
		}
		if len(kinds) != 1 {
			t.Errorf("%s has %d distinct children, want 1", n.Label(), len(kinds))
		}
	}
}

// recursiveProgram calls a doubly recursive procedure from a loop: three
// outermost episodes, each with many nested activations.
const recursiveProgram = `
proc fib(n) {
	if (n < 2) { return n; }
	return fib(n-1) + fib(n-2);
}
proc main(k) {
	var s = 0;
	for (var i = 0; i < 3; i = i + 1) { s = s + fib(k); }
	return s;
}`

func TestRecursionHeadTracksEpisode(t *testing.T) {
	prog := mustCompile(t, recursiveProgram, false)
	g := mustProfile(t, prog, 12)

	head := findNode(t, g, ProcHead, "fib")
	body := findNode(t, g, ProcBody, "fib")
	// Outermost episodes: 3 (one per loop iteration).
	if got := inCount(head); got != 3 {
		t.Errorf("fib head in-count = %d, want 3 (outermost episodes only)", got)
	}
	// Body activations: every call, including recursive ones. fib(12)
	// makes calls(12) total activations where calls(n) follows the
	// Fibonacci call tree: activations(n) = 1 + act(n-1) + act(n-2).
	act := make([]uint64, 13)
	act[0], act[1] = 1, 1
	for i := 2; i <= 12; i++ {
		act[i] = 1 + act[i-1] + act[i-2]
	}
	if got := inCount(body); got != 3*act[12] {
		t.Errorf("fib body in-count = %d, want %d", got, 3*act[12])
	}
	// The head's in-edge hierarchical count must dwarf the per-activation
	// counts on recursive body edges.
	var headAvg float64
	for _, e := range head.In {
		headAvg = e.Avg()
	}
	for _, e := range body.In {
		if e.From.Key.Kind == ProcHead {
			continue
		}
		if e.Avg() >= headAvg {
			t.Errorf("recursive body edge avg %.0f >= head episode avg %.0f", e.Avg(), headAvg)
		}
	}
}

func TestWalkerBalancedAndRootSpansProgram(t *testing.T) {
	prog := mustCompile(t, paperExample, false)
	p := NewProfiler(prog)
	m := minivm.NewMachine(prog, p)
	if _, err := m.Run(20, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err != nil {
		t.Fatalf("unbalanced walker: %v", err)
	}
	g := p.Graph()
	mainHead := findNode(t, g, ProcHead, "main")
	if len(mainHead.In) != 1 {
		t.Fatalf("main head has %d in-edges, want 1 (root)", len(mainHead.In))
	}
	rootEdge := mainHead.In[0]
	if rootEdge.Count() != 1 {
		t.Errorf("root edge count = %d, want 1", rootEdge.Count())
	}
	// The root edge's hierarchical count is the whole execution.
	if got, want := rootEdge.Avg(), float64(m.Instructions()); got != want {
		t.Errorf("root edge hierarchical count = %.0f, want %.0f", got, want)
	}
}

func TestDepthOrderingChildrenBeforeParents(t *testing.T) {
	prog := mustCompile(t, paperExample, false)
	g := mustProfile(t, prog, 8, 2)
	g.EstimateDepths()
	// Along every edge, the child is at least one deeper than the parent
	// unless the edge closes a cycle (recursion); this program has none.
	for _, e := range g.Edges {
		if e.To.Depth <= e.From.Depth {
			t.Errorf("edge %s: child depth %d <= parent depth %d",
				e.Key, e.To.Depth, e.From.Depth)
		}
	}
	// Reverse-depth order must process z (deepest proc) before x before foo.
	order := map[string]int{}
	for i, n := range g.NodesByReverseDepth() {
		if n.Key.Kind == ProcBody && n.Proc != nil {
			order[n.Proc.Name] = i
		}
	}
	if !(order["z"] < order["x"] && order["x"] < order["foo"] && order["foo"] < order["main"]) {
		t.Errorf("bad reverse-depth order: %v", order)
	}
}
