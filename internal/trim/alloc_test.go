package trim

import (
	"testing"

	"repro/graph"
	"repro/internal/scratch"
)

// chainGraph builds a path 0→1→…→n-1: every node is a trivial SCC, so
// Par trims the whole graph (n rounds of peeling from both ends).
func chainGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	return graph.FromEdges(n, edges)
}

// TestParSteadyStateAllocs pins the zero-allocation contract of the
// single-worker trim fixpoint: with a warmed arena, a full Par
// invocation (multiple rounds) performs no heap allocations.
func TestParSteadyStateAllocs(t *testing.T) {
	g := chainGraph(64)
	n := g.NumNodes()
	ar := scratch.New(1, nil)
	defer ar.Close()
	color := make([]int32, n)
	comp := make([]int32, n)
	candidates := make([]graph.NodeID, n)
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	run := func() {
		for i := range color {
			color[i] = 0
			comp[i] = -1
		}
		_, alive := Par(nil, g, color, comp, candidates, ar)
		ar.PutNodes(alive)
	}
	run() // warm the arena pools beyond AllocsPerRun's own warmup run
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("Par allocates %.2f objects/run in steady state, want 0", avg)
	}
}

// TestPeelSteadyStateAllocs pins the zero-allocation contract of the
// single-worker support-pointer kernel: with a warmed arena, a full
// Peel invocation (cascade plus every drain wave) performs no heap
// allocations. The zig-zag path makes the drain run dozens of waves.
func TestPeelSteadyStateAllocs(t *testing.T) {
	g := zigzagPath(64)
	n := g.NumNodes()
	ar := scratch.New(1, nil)
	defer ar.Close()
	color := make([]int32, n)
	comp := make([]int32, n)
	candidates := make([]graph.NodeID, n)
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	var res Result
	run := func() {
		for i := range color {
			color[i] = 0
			comp[i] = -1
		}
		var alive []graph.NodeID
		res, alive = Peel(nil, g, color, comp, candidates, ar)
		ar.PutNodes(alive)
	}
	run() // warm the arena pools beyond AllocsPerRun's own warmup run
	run()
	if res.Rounds < 5 {
		t.Fatalf("rounds = %d, want a multi-wave drain", res.Rounds)
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("Peel allocates %.2f objects/run in steady state, want 0", avg)
	}
}

// TestPar2SteadyStateAllocs pins the same contract for the Trim2
// size-2 pattern pass.
func TestPar2SteadyStateAllocs(t *testing.T) {
	// Disjoint 2-cycles: every pair matches Figure 4's first pattern.
	const pairs = 16
	edges := make([]graph.Edge, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		a, b := graph.NodeID(2*i), graph.NodeID(2*i+1)
		edges = append(edges, graph.Edge{From: a, To: b}, graph.Edge{From: b, To: a})
	}
	g := graph.FromEdges(2*pairs, edges)
	n := g.NumNodes()
	ar := scratch.New(1, nil)
	defer ar.Close()
	color := make([]int32, n)
	comp := make([]int32, n)
	candidates := make([]graph.NodeID, n)
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	run := func() {
		for i := range color {
			color[i] = 0
			comp[i] = -1
		}
		_, alive := Par2(nil, g, color, comp, candidates, ar)
		ar.PutNodes(alive)
	}
	run()
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("Par2 allocates %.2f objects/run in steady state, want 0", avg)
	}
}
