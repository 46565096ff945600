package trim

import (
	"testing"

	"repro/graph"
	"repro/internal/events"
	"repro/internal/scratch"
)

// chainGraph builds a path 0→1→…→n-1: every node is a trivial SCC, so
// Par trims the whole graph.
func chainGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	return graph.FromEdges(n, edges)
}

// zigzagPaths builds k disjoint copies of zigzagPath(n), so each drain
// wave holds 2k nodes, enough for a two-worker gang to split.
func zigzagPaths(k, n int) *graph.Graph {
	one := zigzagPath(n)
	edges := make([]graph.Edge, 0, k*(n-1))
	for c := 0; c < k; c++ {
		off := graph.NodeID(c * n)
		for v := 0; v < n; v++ {
			for _, u := range one.Out(graph.NodeID(v)) {
				edges = append(edges, graph.Edge{From: off + graph.NodeID(v), To: off + u})
			}
		}
	}
	return graph.FromEdges(k*n, edges)
}

// kernelFunc is the signature Par, Par2 and Peel share.
type kernelFunc func(*events.Sink, *graph.Graph, []int32, []int32, []graph.NodeID, *scratch.Arena) (Result, []graph.NodeID)

// pinSteadyStateAllocs fails t unless kernel, run over every node of g
// on a warmed arena, allocates nothing, at one worker and at two. g is
// larger than the kernel's chunk, so the two-worker runs dispatch on
// the gang. It returns the last run's result.
func pinSteadyStateAllocs(t *testing.T, name string, g *graph.Graph, kernel kernelFunc) Result {
	t.Helper()
	n := g.NumNodes()
	candidates := make([]graph.NodeID, n)
	for i := range candidates {
		candidates[i] = graph.NodeID(i)
	}
	var res Result
	for _, workers := range []int{1, 2} {
		ar := newArena(t, workers)
		color, comp := freshState(n)
		run := func() {
			for i := range color {
				color[i] = 0
				comp[i] = -1
			}
			var alive []graph.NodeID
			res, alive = kernel(nil, g, color, comp, candidates, ar)
			ar.PutNodes(alive)
		}
		run() // warm the arena pools beyond AllocsPerRun's own warmup run
		run()
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("%s allocates %.2f objects/run in steady state at %d workers, want 0", name, avg, workers)
		}
	}
	return res
}

// TestParSteadyStateAllocs pins the zero-allocation contract of the
// trim fixpoint: with a warmed arena, a full Par invocation (multiple
// rounds) performs no heap allocations.
func TestParSteadyStateAllocs(t *testing.T) {
	pinSteadyStateAllocs(t, "Par", chainGraph(512), Par)
}

// TestPeelSteadyStateAllocs pins the same contract for the
// support-pointer kernel: a full Peel invocation, cascade plus every
// drain wave. The zig-zag paths make the drain run dozens of waves of
// 128 nodes, two of its chunks.
func TestPeelSteadyStateAllocs(t *testing.T) {
	if res := pinSteadyStateAllocs(t, "Peel", zigzagPaths(64, 64), Peel); res.Rounds < 5 {
		t.Fatalf("rounds = %d, want a multi-wave drain", res.Rounds)
	}
}

// TestPar2SteadyStateAllocs pins the same contract for the Trim2
// size-2 pattern pass.
func TestPar2SteadyStateAllocs(t *testing.T) {
	// Disjoint 2-cycles: every pair matches Figure 4's first pattern.
	const pairs = 256
	edges := make([]graph.Edge, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		a, b := graph.NodeID(2*i), graph.NodeID(2*i+1)
		edges = append(edges, graph.Edge{From: a, To: b}, graph.Edge{From: b, To: a})
	}
	if res := pinSteadyStateAllocs(t, "Par2", graph.FromEdges(2*pairs, edges), Par2); res.SCCs != pairs {
		t.Fatalf("pairs = %d, want %d", res.SCCs, pairs)
	}
}
