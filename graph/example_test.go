package graph_test

import (
	"bytes"
	"fmt"

	"repro/graph"
)

// ExampleBuilder constructs a small graph incrementally.
func ExampleBuilder() {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(1, 2) // duplicates are removed at Build time
	g := b.Build()
	fmt.Println(g.NumNodes(), g.NumEdges())
	fmt.Println(g.Out(1))
	// Output:
	// 3 2
	// [2]
}

// ExampleGraph_Reverse shows the O(1) transpose view.
func ExampleGraph_Reverse() {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	r := g.Reverse()
	fmt.Println(r.HasEdge(1, 0), r.HasEdge(0, 1))
	// Output: true false
}

// ExampleGraph_Save round-trips a graph through the binary format.
func ExampleGraph_Save() {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		panic(err)
	}
	g2, err := graph.Load(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(g2.NumNodes(), g2.NumEdges())
	// Output: 2 2
}

// ExampleComputeStats summarizes a graph's structure.
func ExampleComputeStats() {
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0}})
	s := graph.ComputeStats(g, 4)
	fmt.Println(s.Nodes, s.Edges, s.MaxOutDegree)
	// Output: 4 4 1
}
