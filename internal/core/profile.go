package core

import (
	"fmt"

	"phasemark/internal/minivm"
	"phasemark/internal/obs"
)

// Profiler accumulates a call-loop graph from an execution. Use it as the
// machine's Observer (directly or inside a MultiObserver), then read Graph.
type Profiler struct {
	*Walker
	g *Graph
}

// profileSink folds each closed traversal into its graph edge. Edges are
// found through a dense per-site table: every key the walker closes names
// its site block, and a site sees only a handful of distinct edges, so a
// short linear key compare replaces hashing the full key into the graph's
// edge map. ensureEdge runs only on a miss, in the same order as before,
// so edge creation order and each edge's update order are unchanged.
type profileSink struct {
	g      *Graph
	bySite [][]*Edge // edges met so far, indexed by site block ID
}

func (s *profileSink) EdgeOpen(EdgeKey, uint64) {}

func (s *profileSink) EdgeClose(k EdgeKey, hier uint64) {
	s.edge(k).Hier.Add(float64(hier))
}

func (s *profileSink) edge(k EdgeKey) *Edge {
	for _, e := range s.bySite[k.Site] {
		if e.Key == k {
			return e
		}
	}
	e := s.g.ensureEdge(k)
	s.bySite[k.Site] = append(s.bySite[k.Site], e)
	return e
}

// NewProfiler builds a profiler (and its graph) for prog.
func NewProfiler(prog *minivm.Program) *Profiler {
	g := NewGraph(prog)
	p := &Profiler{g: g}
	p.Walker = NewWalker(prog, g.Loops, &profileSink{g: g, bySite: make([][]*Edge, prog.NumBlocks)})
	return p
}

// Graph returns the call-loop graph built so far. Call Walker.Finish first
// to flush open traversals after a truncated run.
func (p *Profiler) Graph() *Graph { return p.g }

// resolveNode materializes the node for a stable key.
func (g *Graph) resolveNode(k NodeKey) *Node {
	if n, ok := g.nodes[k]; ok {
		return n
	}
	switch k.Kind {
	case RootKind:
		return g.Root
	case ProcHead:
		return g.ProcHeadNode(g.Prog.Procs[k.ID])
	case ProcBody:
		return g.ProcBodyNode(g.Prog.Procs[k.ID])
	default:
		head := g.blockByID(k.ID)
		l := g.Loops.LoopAtHead(head)
		if l == nil {
			panic(fmt.Sprintf("core: no loop headed by block %d", k.ID))
		}
		if k.Kind == LoopHead {
			return g.LoopHeadNode(l)
		}
		return g.LoopBodyNode(l)
	}
}

func (g *Graph) ensureEdge(k EdgeKey) *Edge {
	if e, ok := g.edges[k]; ok {
		return e
	}
	return g.edge(g.resolveNode(k.From), g.resolveNode(k.To), k.Site)
}

func (g *Graph) blockByID(id int) *minivm.Block {
	if id < 0 || id >= len(g.blockIdx) {
		return nil
	}
	return g.blockIdx[id]
}

var (
	obsProfiles   = obs.NewCounter("core.profile.runs")
	obsGraphNodes = obs.NewCounter("core.graph.nodes")
	obsGraphEdges = obs.NewCounter("core.graph.edges")
)

// ProfileRun compiles nothing and runs nothing fancy: it executes prog on
// args with a fresh profiler and returns the resulting call-loop graph.
// This is the "analyze the binary with ATOM" step of the paper.
func ProfileRun(prog *minivm.Program, args ...int64) (*Graph, error) {
	sp := obs.StartSpan("core.profile_run", "")
	defer sp.End()
	p := NewProfiler(prog)
	m := minivm.NewMachine(prog, p)
	if _, err := m.Run(args...); err != nil {
		return nil, fmt.Errorf("core: profiling run failed: %w", err)
	}
	if err := p.Finish(); err != nil {
		return nil, err
	}
	g := p.Graph()
	obsProfiles.Inc()
	obsGraphNodes.Add(uint64(len(g.Nodes)))
	obsGraphEdges.Add(uint64(len(g.Edges)))
	return g, nil
}
