package scc_test

import (
	"encoding/binary"
	"testing"

	"repro/graph"
	"repro/scc"
)

// High-diameter shape builders shared by the differential matrix, the
// metamorphic suite and the fuzz seed corpus. Traversal depth is O(n),
// so a level-synchronous sweep pays one barrier per hop and the
// recursive phase runs long sequential DFS chains.

// chainGraph is the pure directed path 0→1→…→n-1: n singleton SCCs
// and diameter n-1.
func chainGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build()
}

// cycleOfChains joins k chains of m nodes head-to-tail into a single
// directed ring: one SCC of k*m nodes whose FW and BW sweeps must
// each cover the full circumference.
func cycleOfChains(k, m int) *graph.Graph {
	n := k * m
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build()
}

// lollipop is a directed cycle of cyc nodes (the candy, one SCC) with
// a stick-node path hanging off it: trim must peel the stick one
// level at a time before the cycle is exposed, and the candy's FW
// sweep runs the whole stick.
func lollipop(cyc, stick int) *graph.Graph {
	b := graph.NewBuilder(cyc + stick)
	for i := 0; i < cyc; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%cyc))
	}
	b.AddEdge(0, graph.NodeID(cyc))
	for i := 0; i < stick-1; i++ {
		b.AddEdge(graph.NodeID(cyc+i), graph.NodeID(cyc+i+1))
	}
	return b.Build()
}

// necklace chains k cycles of m nodes head-to-tail (cycle i's node 0
// feeds cycle i+1's node 0): k SCCs of m nodes each, none of them
// trimmable, connected into one weak component. Phase 1 stops at the
// first cycle (any m-cycle clears the default giant threshold), so
// the remaining k-1 cycles always reach the phase-2 kernel.
func necklace(k, m int) *graph.Graph {
	b := graph.NewBuilder(k * m)
	for c := 0; c < k; c++ {
		base := c * m
		for i := 0; i < m; i++ {
			b.AddEdge(graph.NodeID(base+i), graph.NodeID(base+(i+1)%m))
		}
		if c+1 < k {
			b.AddEdge(graph.NodeID(base), graph.NodeID(base+m))
		}
	}
	return b.Build()
}

// encodeGraph serializes g in FuzzDetect's binary format — two bytes
// of node count followed by 4-byte (from, to) groups — so the seed
// corpus can carry real shapes. Node counts are capped at the format's
// 1024 ceiling by construction (callers pass small shapes).
func encodeGraph(g *graph.Graph) []byte {
	n := g.NumNodes()
	buf := make([]byte, 2, 2+4*int(g.NumEdges()))
	binary.LittleEndian.PutUint16(buf, uint16(n-1)) // decoder does %1024+1
	for v := 0; v < n; v++ {
		for _, w := range g.Out(graph.NodeID(v)) {
			var e [4]byte
			binary.LittleEndian.PutUint16(e[:2], uint16(v))
			binary.LittleEndian.PutUint16(e[2:], uint16(w))
			buf = append(buf, e[:]...)
		}
	}
	return buf
}

// TestPivotOrderIndependence checks that the answer does not depend on
// which pivots the seeded RNG happens to draw, or on the claim races
// between concurrent workers: across seeds, worker counts and both
// kernel sets the partition must stay canonically equal to Tarjan's.
// Pivot choice may legally change *which* representative labels an
// SCC, so the comparison is canonical, not byte-wise.
func TestPivotOrderIndependence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"deep-chain":      chainGraph(1500),
		"cycle-of-chains": cycleOfChains(6, 200),
		"lollipop":        lollipop(150, 500),
		"two-cycle-chain": chainOfTwoCycles(300),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ref, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
			if err != nil {
				t.Fatal(err)
			}
			want := canonical(t, ref.Comp)
			for _, kern := range []scc.Kernels{scc.KernelsWorklist, scc.KernelsLegacy} {
				for _, seed := range []int64{1, 7, 42, 1 << 40} {
					for _, workers := range []int{1, 3} {
						res, err := scc.Detect(g, scc.Options{
							Algorithm: scc.Method2, Workers: workers, Seed: seed,
							Kernels: kern, Validate: true,
						})
						if err != nil {
							t.Fatalf("%v/seed=%d/w=%d: %v", kern, seed, workers, err)
						}
						if !sameCanonical(want, canonical(t, res.Comp)) {
							t.Fatalf("%v/seed=%d/w=%d: partition depends on pivot order", kern, seed, workers)
						}
					}
				}
			}
		})
	}
}
