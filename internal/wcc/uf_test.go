package wcc

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/scratch"
)

func TestRunUFMatchesUnionFindRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 10 + rng.Intn(200)
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		color := make([]int32, n)
		label := make([]int32, n)
		res := RunUF(nil, g, color, allNodes(n), label, newArena(t, 4))

		uf := newUF(n)
		for v := 0; v < n; v++ {
			for _, k := range g.Out(graph.NodeID(v)) {
				uf.union(v, int(k))
			}
		}
		comps := map[int]bool{}
		for v := 0; v < n; v++ {
			comps[uf.find(v)] = true
			if uf.find(v) != uf.find(int(label[v])) {
				t.Fatalf("trial %d: node %d labeled %d, different UF component", trial, v, label[v])
			}
		}
		byRoot := map[int]int32{}
		for v := 0; v < n; v++ {
			r := uf.find(v)
			if l, ok := byRoot[r]; ok {
				if l != label[v] {
					t.Fatalf("trial %d: component %d has labels %d and %d", trial, r, l, label[v])
				}
			} else {
				byRoot[r] = label[v]
			}
		}
		if res.Components != len(comps) {
			t.Fatalf("trial %d: %d components, want %d", trial, res.Components, len(comps))
		}
	}
}

// TestRunUFMatchesRun pins the drop-in contract differentially: both
// kernels must emit byte-identical label arrays (union by minimum
// guarantees the component-minimum labels propagation converges to).
func TestRunUFMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(300)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		// Random colors partition the graph like mid-run FW-BW state.
		color := make([]int32, n)
		for v := range color {
			color[v] = int32(rng.Intn(3))
		}
		var nodes []graph.NodeID
		for v := 0; v < n; v++ {
			nodes = append(nodes, graph.NodeID(v))
		}
		want := make([]int32, n)
		wres := Run(nil, g, color, nodes, want, newArena(t, 4))
		for _, workers := range []int{1, 4} {
			got := make([]int32, n)
			gres := RunUF(nil, g, color, nodes, got, newArena(t, workers))
			if gres.Components != wres.Components {
				t.Fatalf("trial %d w=%d: %d components, Run got %d", trial, workers, gres.Components, wres.Components)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("trial %d w=%d: node %d labeled %d, Run labeled %d", trial, workers, v, got[v], want[v])
				}
			}
		}
	}
}

func TestRunUFLabelIsMinimumID(t *testing.T) {
	edges := make([]graph.Edge, 5)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(5 - i), To: graph.NodeID(4 - i)}
	}
	g := graph.FromEdges(6, edges)
	label := make([]int32, 6)
	RunUF(nil, g, make([]int32, 6), allNodes(6), label, newArena(t, 2))
	for v, l := range label {
		if l != 0 {
			t.Fatalf("node %d labeled %d, want 0", v, l)
		}
	}
}

func TestRunUFRespectsColors(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	color := []int32{0, 3}
	label := make([]int32, 2)
	res := RunUF(nil, g, color, allNodes(2), label, newArena(t, 1))
	if res.Components != 2 {
		t.Fatalf("components = %d, want 2", res.Components)
	}
	if label[0] != 0 || label[1] != 1 {
		t.Fatalf("labels = %v", label)
	}
}

func TestRunUFIgnoresRemovedNodes(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	color := []int32{0, -1, 0}
	label := make([]int32, 3)
	res := RunUF(nil, g, color, []graph.NodeID{0, 2}, label, newArena(t, 2))
	if res.Components != 2 {
		t.Fatalf("components = %d, want 2", res.Components)
	}
}

func TestRunUFEmptyNodes(t *testing.T) {
	g := graph.FromEdges(3, nil)
	res := RunUF(nil, g, make([]int32, 3), nil, make([]int32, 3), newArena(t, 2))
	if res.Components != 0 {
		t.Fatalf("components = %d", res.Components)
	}
}

func TestRunUFManySmallComponents(t *testing.T) {
	// Thousands of small pieces: the most-frequent-component skip must
	// not suppress hooks outside the (tiny) sampled winner.
	const k = 3000
	b := graph.NewBuilder(3 * k)
	for i := 0; i < k; i++ {
		base := graph.NodeID(3 * i)
		b.AddEdge(base, base+1)
		b.AddEdge(base+1, base+2)
	}
	g := b.Build()
	label := make([]int32, 3*k)
	res := RunUF(nil, g, make([]int32, 3*k), allNodes(3*k), label, newArena(t, 8))
	if res.Components != k {
		t.Fatalf("components = %d, want %d", res.Components, k)
	}
}

func TestRunUFHighDiameterConstantPasses(t *testing.T) {
	// The long path that costs label propagation many pointer-jumping
	// rounds finishes in the union-find kernel's three fixed passes.
	const n = 4096
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	g := graph.FromEdges(n, edges)
	label := make([]int32, n)
	res := RunUF(nil, g, make([]int32, n), allNodes(n), label, newArena(t, 4))
	if res.Components != 1 {
		t.Fatalf("components = %d, want 1", res.Components)
	}
	if label[n-1] != 0 {
		t.Fatalf("far end labeled %d", label[n-1])
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want the constant 3 passes", res.Rounds)
	}
}

func TestRunUFDeterministicAcrossWorkers(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 4, 3))
	n := g.NumNodes()
	var want []int32
	for _, workers := range []int{1, 2, 8} {
		label := make([]int32, n)
		RunUF(nil, g, make([]int32, n), allNodes(n), label, newArena(t, workers))
		if want == nil {
			want = append([]int32(nil), label...)
			continue
		}
		for v := range label {
			if label[v] != want[v] {
				t.Fatalf("workers=%d: node %d labeled %d, want %d", workers, v, label[v], want[v])
			}
		}
	}
}

func BenchmarkWCCUFRMAT(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(14, 8, 1))
	n := g.NumNodes()
	nodes := allNodes(n)
	label := make([]int32, n)
	color := make([]int32, n)
	workers := runtime.GOMAXPROCS(0)
	ar := scratch.New(workers, nil)
	defer ar.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunUF(nil, g, color, nodes, label, ar)
	}
}
