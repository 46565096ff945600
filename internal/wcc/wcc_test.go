package wcc

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/scratch"
)

// newArena returns an arena of the given worker count whose gang is
// closed when the test ends.
func newArena(t testing.TB, workers int) *scratch.Arena {
	ar := scratch.New(workers, nil)
	t.Cleanup(ar.Close)
	return ar
}

// unionFind is the reference model.
type unionFind struct{ parent []int }

func newUF(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}

func allNodes(n int) []graph.NodeID {
	nodes := make([]graph.NodeID, n)
	for i := range nodes {
		nodes[i] = graph.NodeID(i)
	}
	return nodes
}

func TestRunMatchesUnionFindRandom(t *testing.T) {
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
		res := Run(nil, g, color, allNodes(n), label, newArena(t, 4))

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
		// Same-component nodes must share labels.
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

func TestRunLabelIsMinimumID(t *testing.T) {
	// Chain 5-4-3-2-1-0 via directed edges 5→4, 4→3, ...: everything
	// must be labeled 0.
	edges := make([]graph.Edge, 5)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(5 - i), To: graph.NodeID(4 - i)}
	}
	g := graph.FromEdges(6, edges)
	label := make([]int32, 6)
	Run(nil, g, make([]int32, 6), allNodes(6), label, newArena(t, 2))
	for v, l := range label {
		if l != 0 {
			t.Fatalf("node %d labeled %d, want 0", v, l)
		}
	}
}

func TestRunRespectsColors(t *testing.T) {
	// 0-1 edge with different colors: two components despite the edge.
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	color := []int32{0, 3}
	label := make([]int32, 2)
	res := Run(nil, g, color, allNodes(2), label, newArena(t, 1))
	if res.Components != 2 {
		t.Fatalf("components = %d, want 2", res.Components)
	}
	if label[0] != 0 || label[1] != 1 {
		t.Fatalf("labels = %v", label)
	}
}

func TestRunIgnoresRemovedNodes(t *testing.T) {
	// 0-1-2 path where 1 is removed (color -1, not in nodes): 0 and 2
	// are separate components.
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	color := []int32{0, -1, 0}
	label := make([]int32, 3)
	res := Run(nil, g, color, []graph.NodeID{0, 2}, label, newArena(t, 2))
	if res.Components != 2 {
		t.Fatalf("components = %d, want 2", res.Components)
	}
}

func TestRunEmptyNodes(t *testing.T) {
	g := graph.FromEdges(3, nil)
	res := Run(nil, g, make([]int32, 3), nil, make([]int32, 3), newArena(t, 2))
	if res.Components != 0 {
		t.Fatalf("components = %d", res.Components)
	}
}

func TestRunManySmallComponents(t *testing.T) {
	// The §3.3 workload shape: thousands of small disconnected pieces.
	const k = 3000
	b := graph.NewBuilder(3 * k)
	for i := 0; i < k; i++ {
		base := graph.NodeID(3 * i)
		b.AddEdge(base, base+1)
		b.AddEdge(base+1, base+2)
	}
	g := b.Build()
	label := make([]int32, 3*k)
	res := Run(nil, g, make([]int32, 3*k), allNodes(3*k), label, newArena(t, 8))
	if res.Components != k {
		t.Fatalf("components = %d, want %d", res.Components, k)
	}
}

func TestRunHighDiameterConvergence(t *testing.T) {
	// A long path: label 0 must reach the far end despite the distance.
	// Pointer jumping keeps rounds well below n.
	const n = 4096
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	g := graph.FromEdges(n, edges)
	label := make([]int32, n)
	res := Run(nil, g, make([]int32, n), allNodes(n), label, newArena(t, 4))
	if res.Components != 1 {
		t.Fatalf("components = %d, want 1", res.Components)
	}
	if label[n-1] != 0 {
		t.Fatalf("far end labeled %d", label[n-1])
	}
	if res.Rounds >= n/4 {
		t.Fatalf("rounds = %d, pointer jumping ineffective", res.Rounds)
	}
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 4, 3))
	n := g.NumNodes()
	var want []int32
	for _, workers := range []int{1, 2, 8} {
		label := make([]int32, n)
		Run(nil, g, make([]int32, n), allNodes(n), label, newArena(t, workers))
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

// The kernel benchmarks run GOMAXPROCS workers on a retained arena of
// that size, as the engine does, so -cpu sets the worker count.
func BenchmarkWCCRMAT(b *testing.B) {
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
		Run(nil, g, color, nodes, label, ar)
	}
}
