package scc_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/dist"
	"repro/gen"
	"repro/graph"
	"repro/scc"
)

// canonical returns the dense renumbering of a labeling: two
// partitions are identical up to label names iff their canonical
// forms are byte-for-byte equal (Renumber assigns ids in order of
// first appearance).
func canonical(t *testing.T, comp []int32) []int32 {
	t.Helper()
	out, _ := scc.Renumber(comp)
	return out
}

func sameCanonical(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// differentialGraphs enumerates the workload matrix: known-answer
// edge cases, oracle graphs with planted decompositions, and the
// small-world topologies the paper targets.
func differentialGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	graphs := map[string]*graph.Graph{
		"empty":     graph.FromEdges(0, nil),
		"single":    graph.FromEdges(1, nil),
		"selfloop":  graph.FromEdges(1, []graph.Edge{{From: 0, To: 0}}),
		"two-cycle": graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}}),
		"planted": gen.PlantedSCCs(gen.PlantedConfig{
			Sizes:      gen.PowerLawSizes(200, 2.1, 64, 800, 7),
			IntraExtra: 1.5,
			InterEdges: 1200,
			Shuffle:    true,
			Seed:       7,
		}).Graph,
		"smallworld": gen.SmallWorldSCC(2000, 300, 2.3, 40, 1.2, 11).Graph,
		"rmat-tail": gen.WithTail(gen.RMAT(gen.DefaultRMAT(11, 8, 3)), gen.TailConfig{
			Components:  128,
			Alpha:       2.2,
			MaxSize:     48,
			AttachEdges: 2,
			ChainProb:   0.3,
			Seed:        3,
		}),
		"citation-dag":   gen.CitationDAG(1500, 6, 13),
		"watts-strogatz": gen.WattsStrogatz(1200, 8, 0.1, 17),
	}
	// A handful of unstructured random digraphs for shapes no
	// generator plans for.
	for trial := 0; trial < 4; trial++ {
		n := 1 + rng.Intn(300)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		graphs[fmt.Sprintf("random-%d", trial)] = b.Build()
	}
	return graphs
}

// TestDifferentialAlgorithms runs every graph in the workload matrix
// through Tarjan (reference), Baseline, Method1 and Method2 and
// requires identical partitions up to renumbering.
func TestDifferentialAlgorithms(t *testing.T) {
	algs := []scc.Algorithm{scc.Baseline, scc.Method1, scc.Method2}
	for name, g := range differentialGraphs(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan, Validate: true})
			if err != nil {
				t.Fatal(err)
			}
			want := canonical(t, ref.Comp)
			for _, alg := range algs {
				for _, workers := range []int{1, 4} {
					res, err := scc.Detect(g, scc.Options{
						Algorithm: alg, Workers: workers, Seed: 5, Validate: true,
					})
					if err != nil {
						t.Fatalf("%v/w=%d: %v", alg, workers, err)
					}
					if res.NumSCCs != ref.NumSCCs {
						t.Fatalf("%v/w=%d: NumSCCs %d, want %d", alg, workers, res.NumSCCs, ref.NumSCCs)
					}
					if !sameCanonical(want, canonical(t, res.Comp)) {
						t.Fatalf("%v/w=%d: partition differs from Tarjan", alg, workers)
					}
				}
			}
		})
	}
}

// chainOfTwoCycles builds pairs of mutually-linked nodes chained
// head-to-tail: pair i is the 2-cycle {2i, 2i+1}, with a chain edge
// 2i+1 → 2i+2. Every pair is an SCC, and trimming it only exposes the
// next pair — the adversarial deep-peeling shape where round-based
// trim does Θ(pairs) full rescans while the counter-peeling kernel
// touches each edge once.
func chainOfTwoCycles(pairs int) *graph.Graph {
	b := graph.NewBuilder(2 * pairs)
	for i := 0; i < pairs; i++ {
		a, bb := graph.NodeID(2*i), graph.NodeID(2*i+1)
		b.AddEdge(a, bb)
		b.AddEdge(bb, a)
		if i+1 < pairs {
			b.AddEdge(bb, graph.NodeID(2*i+2))
		}
	}
	return b.Build()
}

// TestDifferentialKernels runs every parallel algorithm under both
// kernel sets — the legacy round-based Par-Trim/Par-WCC and the
// work-efficient worklist kernels — and requires canonically identical
// partitions against Tarjan, on random, planted-oracle, deep-peeling
// and high-diameter graphs. The distributed pipeline is held to the
// same bar under every Kernels setting.
func TestDifferentialKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	graphs := map[string]*graph.Graph{
		"chain-of-2-cycles": chainOfTwoCycles(400),
		// High-diameter shapes: thousands of BFS levels and trim rounds
		// must not change the answer.
		"deep-chain":      chainGraph(1200),
		"cycle-of-chains": cycleOfChains(8, 150),
		"lollipop":        lollipop(200, 600),
		"planted": gen.PlantedSCCs(gen.PlantedConfig{
			Sizes:      gen.PowerLawSizes(180, 2.1, 60, 700, 21),
			IntraExtra: 1.2,
			InterEdges: 1000,
			Shuffle:    true,
			Seed:       21,
		}).Graph,
		"rmat-tail": gen.WithTail(gen.RMAT(gen.DefaultRMAT(10, 8, 5)), gen.TailConfig{
			Components:  96,
			Alpha:       2.2,
			MaxSize:     40,
			AttachEdges: 2,
			ChainProb:   0.4,
			Seed:        5,
		}),
	}
	for trial := 0; trial < 3; trial++ {
		n := 1 + rng.Intn(250)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		graphs[fmt.Sprintf("random-%d", trial)] = b.Build()
	}

	kernels := []scc.Kernels{scc.KernelsWorklist, scc.KernelsLegacy}
	algs := []scc.Algorithm{scc.Baseline, scc.Method1, scc.Method2}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			ref, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan, Validate: true})
			if err != nil {
				t.Fatal(err)
			}
			want := canonical(t, ref.Comp)
			for _, alg := range algs {
				for _, kern := range kernels {
					for _, workers := range []int{1, 4} {
						res, err := scc.Detect(g, scc.Options{
							Algorithm: alg, Workers: workers, Seed: 5,
							Kernels: kern, Validate: true,
						})
						if err != nil {
							t.Fatalf("%v/%v/w=%d: %v", alg, kern, workers, err)
						}
						if res.NumSCCs != ref.NumSCCs {
							t.Fatalf("%v/%v/w=%d: NumSCCs %d, want %d", alg, kern, workers, res.NumSCCs, ref.NumSCCs)
						}
						if !sameCanonical(want, canonical(t, res.Comp)) {
							t.Fatalf("%v/%v/w=%d: partition differs from Tarjan", alg, kern, workers)
						}
					}
				}
			}
			for _, kern := range kernels {
				dres := dist.Run(g, dist.Options{Workers: 3, Seed: 9, Kernels: kern})
				if dres.NumSCCs != ref.NumSCCs {
					t.Fatalf("dist/%v: NumSCCs %d, want %d", kern, dres.NumSCCs, ref.NumSCCs)
				}
				if !sameCanonical(want, canonical(t, dres.Comp)) {
					t.Fatalf("dist/%v: partition differs from Tarjan", kern)
				}
			}
		})
	}
}

// TestDifferentialPlantedOracle checks Method2 against the planted
// ground truth directly (not just against Tarjan): the canonical form
// of the detected partition must equal the canonical form of the
// planted component map.
func TestDifferentialPlantedOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		p := gen.PlantedSCCs(gen.PlantedConfig{
			Sizes:      gen.PowerLawSizes(150, 2.2, 50, 600, seed),
			IntraExtra: 1.0,
			InterEdges: 900,
			Shuffle:    true,
			Seed:       seed,
		})
		res, err := scc.Detect(p.Graph, scc.Options{Algorithm: scc.Method2, Workers: 4, Seed: seed, Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumSCCs != int64(p.NumComps) {
			t.Fatalf("seed %d: NumSCCs %d, want %d planted", seed, res.NumSCCs, p.NumComps)
		}
		truth := make([]int32, len(p.Comp))
		for v, c := range p.Comp {
			truth[v] = int32(c)
		}
		if !sameCanonical(canonical(t, truth), canonical(t, res.Comp)) {
			t.Fatalf("seed %d: partition differs from planted ground truth", seed)
		}
	}
}

// TestDifferentialDistributed runs the distributed pipeline over both
// transports against the Tarjan reference on the same workload matrix.
// TCP runs are restricted to the non-trivial graphs to keep socket
// churn down; the in-memory transport covers everything.
func TestDifferentialDistributed(t *testing.T) {
	for name, g := range differentialGraphs(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
			if err != nil {
				t.Fatal(err)
			}
			want := canonical(t, ref.Comp)

			dres := dist.Run(g, dist.Options{Workers: 3, Seed: 9})
			if dres.NumSCCs != ref.NumSCCs {
				t.Fatalf("mem transport: NumSCCs %d, want %d", dres.NumSCCs, ref.NumSCCs)
			}
			if !sameCanonical(want, canonical(t, dres.Comp)) {
				t.Fatal("mem transport: partition differs from Tarjan")
			}

			if g.NumNodes() < 100 {
				return // TCP mesh setup dwarfs the work; mem covered it
			}
			tr, err := dist.NewTCPTransport(3)
			if err != nil {
				t.Fatal(err)
			}
			tres, err := dist.RunTransport(g, dist.Options{Workers: 3, Seed: 9, Transport: tr})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			if tres.NumSCCs != ref.NumSCCs {
				t.Fatalf("tcp transport: NumSCCs %d, want %d", tres.NumSCCs, ref.NumSCCs)
			}
			if !sameCanonical(want, canonical(t, tres.Comp)) {
				t.Fatal("tcp transport: partition differs from Tarjan")
			}
		})
	}
}

// TestDifferentialBottomUpBFS runs the parallel algorithms against
// Tarjan on an R-MAT graph large enough for phase 1's giant partition
// to sweep bottom-up, at several worker counts. Baseline runs no
// phase 1, so only its partition is checked.
func TestDifferentialBottomUpBFS(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(15, 8, 21))
	want, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []scc.Algorithm{scc.Baseline, scc.Method1, scc.Method2} {
		for _, workers := range []int{1, 2, 4} {
			res, err := scc.Detect(g, scc.Options{Algorithm: alg, Workers: workers, Seed: 4})
			if err != nil {
				t.Fatalf("%v w%d: %v", alg, workers, err)
			}
			if !scc.SamePartition(res.Comp, want.Comp) {
				t.Fatalf("%v w%d diverges from Tarjan", alg, workers)
			}
			if alg != scc.Baseline && res.Metrics.BitmapLevels == 0 {
				t.Fatalf("%v w%d: no phase-1 level swept bottom-up (%d levels)", alg, workers, res.Metrics.BFSLevels)
			}
		}
	}
}
