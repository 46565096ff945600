package graph

import (
	"math"
	"testing"
)

func TestComputeStatsSmall(t *testing.T) {
	// 0→1→2→0 triangle plus isolated node 3 and self-loop on 4.
	g := FromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 0}, {4, 4}})
	s := ComputeStats(g, 4)
	if s.Nodes != 5 || s.Edges != 4 {
		t.Fatalf("nodes=%d edges=%d", s.Nodes, s.Edges)
	}
	if s.SelfLoops != 1 {
		t.Fatalf("self loops = %d", s.SelfLoops)
	}
	if s.ZeroOutDegree != 1 || s.ZeroInDegree != 1 { // node 3
		t.Fatalf("zero degrees: out=%d in=%d", s.ZeroOutDegree, s.ZeroInDegree)
	}
	if s.MaxOutDegree != 1 || s.MinOutDegree != 0 {
		t.Fatalf("out degree range [%d,%d]", s.MinOutDegree, s.MaxOutDegree)
	}
	if math.Abs(s.MeanDegree-0.8) > 1e-9 {
		t.Fatalf("mean degree = %f", s.MeanDegree)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	s := ComputeStats(NewBuilder(0).Build(), 3)
	if s.Nodes != 0 || s.Edges != 0 || s.EstDiameter != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestReciprocalFraction(t *testing.T) {
	// 0↔1 reciprocal, 1→2 one-way: 2 of 3 edges reciprocated.
	g := FromEdges(3, []Edge{{0, 1}, {1, 0}, {1, 2}})
	s := ComputeStats(g, 0)
	if math.Abs(s.ReciprocalFrac-2.0/3.0) > 1e-9 {
		t.Fatalf("reciprocal = %f, want 2/3", s.ReciprocalFrac)
	}
}

func TestEstimateDiameterPath(t *testing.T) {
	// Directed path 0→1→…→9: undirected pseudo-diameter is 9.
	edges := make([]Edge, 0, 9)
	for i := 0; i < 9; i++ {
		edges = append(edges, Edge{NodeID(i), NodeID(i + 1)})
	}
	g := FromEdges(10, edges)
	if d := EstimateDiameter(g, 8, 1); d != 9 {
		t.Fatalf("path diameter estimate = %d, want 9", d)
	}
}

func TestEstimateDiameterCycle(t *testing.T) {
	// Undirected view of a 12-cycle has diameter 6.
	edges := make([]Edge, 12)
	for i := range edges {
		edges[i] = Edge{NodeID(i), NodeID((i + 1) % 12)}
	}
	g := FromEdges(12, edges)
	if d := EstimateDiameter(g, 10, 1); d != 6 {
		t.Fatalf("cycle diameter estimate = %d, want 6", d)
	}
}

func TestEstimateDiameterIsLowerBound(t *testing.T) {
	// On a star graph the true diameter is 2; a single sample from any
	// node must report ≤ 2 and ≥ 1.
	edges := make([]Edge, 0, 20)
	for i := 1; i <= 20; i++ {
		edges = append(edges, Edge{0, NodeID(i)})
	}
	g := FromEdges(21, edges)
	d := EstimateDiameter(g, 1, 3)
	if d < 1 || d > 2 {
		t.Fatalf("star diameter estimate = %d, want 1..2", d)
	}
}

func TestDegreeGiniUniform(t *testing.T) {
	// Ring: every node out-degree 1 → Gini 0.
	edges := make([]Edge, 100)
	for i := range edges {
		edges[i] = Edge{NodeID(i), NodeID((i + 1) % 100)}
	}
	g := FromEdges(100, edges)
	if gini := ComputeStats(g, 0).DegreeGini; math.Abs(gini) > 1e-9 {
		t.Fatalf("uniform Gini = %f, want 0", gini)
	}
}

func TestDegreeGiniSkewed(t *testing.T) {
	// Star: one hub with all the out-degree → Gini near 1.
	edges := make([]Edge, 0, 99)
	for i := 1; i < 100; i++ {
		edges = append(edges, Edge{0, NodeID(i)})
	}
	g := FromEdges(100, edges)
	if gini := ComputeStats(g, 0).DegreeGini; gini < 0.9 {
		t.Fatalf("star Gini = %f, want > 0.9", gini)
	}
}
