package bfs

import (
	"testing"

	"repro/graph"
	"repro/internal/scratch"
)

// TestRunSteadyStateAllocs pins the zero-allocation contract of the
// single-worker level-synchronous BFS: with a warmed arena a full
// traversal — frontier swaps included — performs no heap allocations.
func TestRunSteadyStateAllocs(t *testing.T) {
	// A binary tree gives several levels with growing frontiers.
	const n = 255
	edges := make([]graph.Edge, 0, n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{From: graph.NodeID((v - 1) / 2), To: graph.NodeID(v)})
	}
	g := graph.FromEdges(n, edges)
	ar := scratch.New(1, nil)
	defer ar.Close()
	color := make([]int32, n)
	visited := newBits(n)
	seeds := []graph.NodeID{0}
	run := func() {
		clear(visited)
		Run(nil, g, false, seeds, color, 0, visited, ar)
	}
	run() // warm the frontier pools
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("Run allocates %.2f objects/run in steady state, want 0", avg)
	}
}

// TestRunBottomUpSteadyStateAllocs is the same pin with every level
// forced bottom-up over the candidate list: the single-worker sweep
// draws only on the arena's next buffers.
func TestRunBottomUpSteadyStateAllocs(t *testing.T) {
	const n = 255
	edges := make([]graph.Edge, 0, n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{From: graph.NodeID((v - 1) / 2), To: graph.NodeID(v)})
	}
	g := graph.FromEdges(n, edges)
	ar := scratch.New(1, nil)
	defer ar.Close()
	color := make([]int32, n)
	visited := newBits(n)
	seeds := []graph.NodeID{0}
	candidates := allNodes(g)
	sweep := func() {
		clear(visited)
		run(nil, g, false, seeds, color, 0, visited, ar, candidates, forceBottomUp)
	}
	sweep()
	sweep()
	if avg := testing.AllocsPerRun(100, sweep); avg != 0 {
		t.Fatalf("bottom-up run allocates %.2f objects/run in steady state, want 0", avg)
	}
}
