package seq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/gen"
	"repro/graph"
	"repro/internal/verify"
)

func TestTarjanEmpty(t *testing.T) {
	comp, nc := Tarjan(graph.FromEdges(0, nil))
	if len(comp) != 0 || nc != 0 {
		t.Fatalf("empty graph: nc=%d", nc)
	}
}

func TestTarjanKnownCases(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
		nc    int
	}{
		{"isolated", 3, nil, 3},
		{"path", 3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}}, 3},
		{"triangle", 3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}}, 1},
		{"two-cycles-bridged", 4, []graph.Edge{
			{From: 0, To: 1}, {From: 1, To: 0}, {From: 2, To: 3}, {From: 3, To: 2}, {From: 1, To: 2}}, 2},
		{"self-loop", 2, []graph.Edge{{From: 0, To: 0}, {From: 0, To: 1}}, 2},
		{"figure1b-chain", 5, []graph.Edge{ // a→b→c, d→c, c→e shape from Fig 1(b): all trivial
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 2}, {From: 2, To: 4}}, 5},
	}
	for _, tc := range cases {
		g := graph.FromEdges(tc.n, tc.edges)
		comp, nc := Tarjan(g)
		if nc != tc.nc {
			t.Errorf("%s: numComps = %d, want %d", tc.name, nc, tc.nc)
		}
		if err := verify.CheckDecomposition(g, comp); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

func TestTarjanReverseTopologicalOrder(t *testing.T) {
	// Tarjan assigns component ids in reverse topological order: for
	// every cross edge u→v, comp[u] > comp[v].
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 11))
	comp, _ := Tarjan(g)
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(graph.NodeID(v)) {
			if comp[v] != comp[w] && comp[v] < comp[w] {
				t.Fatalf("edge %d→%d: comp %d < %d violates reverse topological order",
					v, w, comp[v], comp[w])
			}
		}
	}
}

func TestTarjanDeepPath(t *testing.T) {
	// A 500k-node path would blow a recursive implementation's stack.
	const n = 500_000
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	g := graph.FromEdges(n, edges)
	_, nc := Tarjan(g)
	if nc != n {
		t.Fatalf("path components = %d, want %d", nc, n)
	}
}

func TestTarjanDeepCycle(t *testing.T) {
	const n = 300_000
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID((i + 1) % n)}
	}
	g := graph.FromEdges(n, edges)
	comp, nc := Tarjan(g)
	if nc != 1 {
		t.Fatalf("cycle components = %d, want 1", nc)
	}
	for _, c := range comp {
		if c != comp[0] {
			t.Fatal("cycle nodes not in one component")
		}
	}
}

func TestKosarajuMatchesTarjanRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		b := graph.NewBuilder(n)
		for i := 0; i < rng.Intn(400); i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		ct, nt := Tarjan(g)
		ck, nk := Kosaraju(g)
		return nt == nk && verify.SamePartition(ct, ck)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTarjanPlantedGroundTruth(t *testing.T) {
	p := gen.PlantedSCCs(gen.PlantedConfig{
		Sizes:      []int{10, 1, 1, 4, 7, 2, 1, 30},
		IntraExtra: 1,
		InterEdges: 60,
		Shuffle:    true,
		Seed:       13,
	})
	comp, nc := Tarjan(p.Graph)
	if nc != p.NumComps {
		t.Fatalf("numComps = %d, want %d", nc, p.NumComps)
	}
	truth := make([]int32, len(p.Comp))
	for i, c := range p.Comp {
		truth[i] = int32(c)
	}
	if !verify.SamePartition(comp, truth) {
		t.Fatal("Tarjan partition differs from planted ground truth")
	}
}

func TestTarjanOnRMAT(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	comp, _ := Tarjan(g)
	if err := verify.CheckDecomposition(g, comp); err != nil {
		t.Fatal(err)
	}
}

func TestKosarajuOnDAG(t *testing.T) {
	g := gen.CitationDAG(5000, 4, 17)
	_, nc := Kosaraju(g)
	if nc != 5000 {
		t.Fatalf("DAG components = %d, want 5000", nc)
	}
}

func BenchmarkTarjanRMAT(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(14, 8, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Tarjan(g)
	}
}

func BenchmarkKosarajuRMAT(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(14, 8, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kosaraju(g)
	}
}

func TestThreeOraclesAgreeOnRMAT(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 29))
	ct, nt := Tarjan(g)
	ck, nk := Kosaraju(g)
	if nt != nk {
		t.Fatalf("counts differ: %d %d", nt, nk)
	}
	if !verify.SamePartition(ct, ck) {
		t.Fatal("oracles disagree")
	}
}
