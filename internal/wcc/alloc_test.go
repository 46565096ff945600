package wcc

import (
	"testing"

	"repro/graph"
	"repro/internal/events"
	"repro/internal/scratch"
)

// pinSteadyStateAllocs fails t unless kernel, labeling a 1,024-node
// path on a warmed arena, allocates nothing, at one worker and at two.
// The path is one component, deep enough that finds actually chase and
// halve parent chains, and larger than every pass's chunk, so the
// two-worker runs dispatch on the gang.
func pinSteadyStateAllocs(t *testing.T, name string,
	kernel func(*events.Sink, *graph.Graph, []int32, []graph.NodeID, []int32, *scratch.Arena) Result) {
	t.Helper()
	const n = 1024
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	g := graph.FromEdges(n, edges)
	color := make([]int32, n)
	label := make([]int32, n)
	nodes := allNodes(n)
	for _, workers := range []int{1, 2} {
		ar := scratch.New(workers, nil)
		defer ar.Close()
		var res Result
		run := func() { res = kernel(nil, g, color, nodes, label, ar) }
		run() // warm the arena pools beyond AllocsPerRun's own warmup run
		run()
		if avg := testing.AllocsPerRun(100, run); avg != 0 {
			t.Errorf("%s allocates %.2f objects/run in steady state at %d workers, want 0", name, avg, workers)
		}
		if res.Components != 1 {
			t.Fatalf("%s at %d workers: components = %d, want 1", name, workers, res.Components)
		}
	}
}

// TestRunUFSteadyStateAllocs pins the zero-allocation contract of the
// union-find kernel: with a warmed arena, a full RunUF invocation
// (sampling, skip detection, full pass, flatten) performs no heap
// allocations.
func TestRunUFSteadyStateAllocs(t *testing.T) {
	pinSteadyStateAllocs(t, "RunUF", RunUF)
}

// TestRunSteadyStateAllocs pins the same contract for label
// propagation: every round's hook and shortcut passes.
func TestRunSteadyStateAllocs(t *testing.T) {
	pinSteadyStateAllocs(t, "Run", Run)
}
