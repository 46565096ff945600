package wcc

import (
	"testing"

	"repro/graph"
	"repro/internal/scratch"
)

// TestRunUFSteadyStateAllocs pins the zero-allocation contract of the
// single-worker union-find kernel: with a warmed arena, a full RunUF
// invocation (sampling, skip detection, full pass, flatten) performs
// no heap allocations.
func TestRunUFSteadyStateAllocs(t *testing.T) {
	const n = 128
	// A path: one component, deep enough that finds actually chase and
	// halve parent chains.
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	g := graph.FromEdges(n, edges)
	ar := scratch.New(1, nil)
	defer ar.Close()
	color := make([]int32, n)
	label := make([]int32, n)
	nodes := allNodes(n)
	run := func() {
		if res := RunUF(nil, g, color, nodes, label, ar); res.Components != 1 {
			t.Fatalf("components = %d, want 1", res.Components)
		}
	}
	run() // warm the arena pools beyond AllocsPerRun's own warmup run
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("RunUF allocates %.2f objects/run in steady state, want 0", avg)
	}
}
