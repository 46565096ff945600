package bfs

import (
	"testing"

	"repro/graph"
	"repro/internal/scratch"
)

// pinSteadyStateAllocs fails t unless search, a full traversal of a
// 4,095-node binary tree from its root on a warmed arena, allocates
// nothing, at one worker and at two. The tree's last level holds 2,048
// nodes, more than run inline, so at two workers the levels that
// expand it, or every level swept bottom-up over all 4,095 candidates,
// dispatch on the gang.
func pinSteadyStateAllocs(t *testing.T, name string,
	search func(g *graph.Graph, seeds, candidates []graph.NodeID, color []int32, visited []uint32, ar *scratch.Arena)) {
	t.Helper()
	const n = 4095
	edges := make([]graph.Edge, 0, n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{From: graph.NodeID((v - 1) / 2), To: graph.NodeID(v)})
	}
	g := graph.FromEdges(n, edges)
	color := make([]int32, n)
	visited := newBits(n)
	seeds, candidates := []graph.NodeID{0}, allNodes(g)
	for _, workers := range []int{1, 2} {
		ar := scratch.New(workers, nil)
		defer ar.Close()
		run := func() {
			clear(visited)
			search(g, seeds, candidates, color, visited, ar)
		}
		run() // warm the frontier pools
		run()
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("%s allocates %.2f objects/run in steady state at %d workers, want 0", name, avg, workers)
		}
	}
}

// TestRunSteadyStateAllocs pins the zero-allocation contract of the
// level-synchronous BFS: with a warmed arena a full traversal —
// frontier swaps included — performs no heap allocations.
func TestRunSteadyStateAllocs(t *testing.T) {
	pinSteadyStateAllocs(t, "Run", func(g *graph.Graph, seeds, _ []graph.NodeID, color []int32, visited []uint32, ar *scratch.Arena) {
		Run(nil, g, false, seeds, color, 0, visited, ar)
	})
}

// TestRunBottomUpSteadyStateAllocs is the same pin with every level
// forced bottom-up over the candidate list: a sweep draws only on the
// arena's next buffers.
func TestRunBottomUpSteadyStateAllocs(t *testing.T) {
	pinSteadyStateAllocs(t, "bottom-up run", func(g *graph.Graph, seeds, candidates []graph.NodeID, color []int32, visited []uint32, ar *scratch.Arena) {
		run(nil, g, false, seeds, color, 0, visited, ar, candidates, forceBottomUp)
	})
}
