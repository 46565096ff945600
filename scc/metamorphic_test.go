package scc_test

import (
	"math/rand"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/scc"
)

// relabel builds the image of g under the node permutation perm
// (perm[v] is v's new id).
func relabel(g *graph.Graph, perm []graph.NodeID) *graph.Graph {
	n := g.NumNodes()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, w := range g.Out(graph.NodeID(v)) {
			b.AddEdge(perm[v], perm[w])
		}
	}
	return b.Build()
}

// metamorphicGraphs is a smaller matrix than the differential one:
// each graph is decomposed several times per relation. The
// high-diameter shapes (necklace, lollipop) are in so deep traversals
// and long trim cascades face every relation too.
func metamorphicGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"smallworld": gen.SmallWorldSCC(1500, 200, 2.3, 32, 1.0, 23).Graph,
		"rmat":       gen.RMAT(gen.DefaultRMAT(10, 8, 29)),
		"planted": gen.PlantedSCCs(gen.PlantedConfig{
			Sizes:      gen.PowerLawSizes(120, 2.1, 40, 500, 31),
			IntraExtra: 1.0,
			InterEdges: 700,
			Shuffle:    true,
			Seed:       31,
		}).Graph,
		"necklace": necklace(12, 50),
		"lollipop": lollipop(100, 400),
	}
}

// metamorphicKernels is the kernel dimension every relation runs
// under: the default worklist kernels and the paper's round-based
// legacy kernels.
var metamorphicKernels = []scc.Kernels{scc.KernelsWorklist, scc.KernelsLegacy}

// TestMetamorphicRelabel checks the metamorphic relation under vertex
// relabeling: for any permutation π, the SCC partition of π(g) is the
// π-image of the partition of g. Both decompositions run Method2 with
// multiple workers, so the scratch arena, pooled task lists and
// adaptive BFS all sit on the tested path.
func TestMetamorphicRelabel(t *testing.T) {
	for name, g := range metamorphicGraphs() {
		t.Run(name, func(t *testing.T) {
			n := g.NumNodes()
			for _, kern := range metamorphicKernels {
				base, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Workers: 4, Seed: 3, Kernels: kern, Validate: true})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(99))
				for trial := 0; trial < 3; trial++ {
					perm := make([]graph.NodeID, n)
					for i := range perm {
						perm[i] = graph.NodeID(i)
					}
					rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
					pg := relabel(g, perm)
					pres, err := scc.Detect(pg, scc.Options{Algorithm: scc.Method2, Workers: 4, Seed: int64(trial), Kernels: kern, Validate: true})
					if err != nil {
						t.Fatal(err)
					}
					if pres.NumSCCs != base.NumSCCs {
						t.Fatalf("%v trial %d: NumSCCs %d, want %d", kern, trial, pres.NumSCCs, base.NumSCCs)
					}
					// Pull the permuted labeling back through π and compare
					// partitions (labels are representatives, so only the
					// induced partition is comparable).
					pulled := make([]int32, n)
					for v := 0; v < n; v++ {
						pulled[v] = pres.Comp[perm[v]]
					}
					if !scc.SamePartition(base.Comp, pulled) {
						t.Fatalf("%v trial %d: partition not invariant under relabeling", kern, trial)
					}
				}
			}
		})
	}
}

// TestMetamorphicReverse checks the transpose relation: g and its
// edge-reversal have identical SCC partitions (u and v are mutually
// reachable in g iff they are in gᵀ).
func TestMetamorphicReverse(t *testing.T) {
	for name, g := range metamorphicGraphs() {
		t.Run(name, func(t *testing.T) {
			for _, kern := range metamorphicKernels {
				base, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Workers: 4, Seed: 3, Kernels: kern, Validate: true})
				if err != nil {
					t.Fatal(err)
				}
				rres, err := scc.Detect(g.Reverse(), scc.Options{Algorithm: scc.Method2, Workers: 4, Seed: 7, Kernels: kern, Validate: true})
				if err != nil {
					t.Fatal(err)
				}
				if rres.NumSCCs != base.NumSCCs {
					t.Fatalf("%v: NumSCCs %d, want %d", kern, rres.NumSCCs, base.NumSCCs)
				}
				if !scc.SamePartition(base.Comp, rres.Comp) {
					t.Fatalf("%v: partition not invariant under edge reversal", kern)
				}
			}
		})
	}
}
