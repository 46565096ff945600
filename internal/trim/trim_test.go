package trim

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/scratch"
	"repro/internal/seq"
)

// newArena returns an arena of the given worker count whose gang is
// closed when the test ends.
func newArena(t testing.TB, workers int) *scratch.Arena {
	ar := scratch.New(workers, nil)
	t.Cleanup(ar.Close)
	return ar
}

func freshState(n int) (color, comp []int32) {
	color = make([]int32, n)
	comp = make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	return color, comp
}

func TestParTrimFigure1b(t *testing.T) {
	// Figure 1(b): chain a→b→c plus c's other trimmable companions.
	// Nodes: a=0,b=1,c=2,d=3,e=4 with edges a→b, b→c, d→c, c→e.
	// All five are trivial SCCs and must be fully trimmed, requiring
	// iterative rounds (c,d,e first, then b, then a).
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 2}, {From: 2, To: 4}})
	color, comp := freshState(5)
	res, alive := Par(nil, g, color, comp, nil, newArena(t, 2))
	if res.Removed != 5 {
		t.Fatalf("removed %d, want 5", res.Removed)
	}
	if len(alive) != 0 {
		t.Fatalf("alive = %v, want empty", alive)
	}
	if res.Rounds < 3 {
		t.Fatalf("rounds = %d, want >= 3 (iterative trimming)", res.Rounds)
	}
	for v := 0; v < 5; v++ {
		if comp[v] != int32(v) || color[v] != Removed {
			t.Fatalf("node %d: comp=%d color=%d", v, comp[v], color[v])
		}
	}
}

func TestParTrimPreservesCycle(t *testing.T) {
	// Triangle with a pendant tail: tail trims, triangle survives.
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, // triangle
		{From: 2, To: 3}, {From: 3, To: 4}}) // tail
	color, comp := freshState(5)
	res, alive := Par(nil, g, color, comp, nil, newArena(t, 4))
	if res.Removed != 2 {
		t.Fatalf("removed %d, want 2", res.Removed)
	}
	if len(alive) != 3 {
		t.Fatalf("alive %v, want the triangle", alive)
	}
	for _, v := range alive {
		if v > 2 {
			t.Fatalf("trimmed-node %d survived", v)
		}
		if color[v] != 0 || comp[v] != -1 {
			t.Fatalf("survivor %d mutated: color=%d comp=%d", v, color[v], comp[v])
		}
	}
}

func TestParTrimSelfLoopIsTrimmed(t *testing.T) {
	// A node whose only cycle is a self-loop is a size-1 SCC; excluding
	// self-edges from degree counts lets Trim claim it immediately.
	g := graph.FromEdges(1, []graph.Edge{{From: 0, To: 0}})
	color, comp := freshState(1)
	res, alive := Par(nil, g, color, comp, nil, newArena(t, 1))
	if res.Removed != 1 || len(alive) != 0 {
		t.Fatalf("removed=%d alive=%v", res.Removed, alive)
	}
}

func TestParTrimRespectsColors(t *testing.T) {
	// 2-cycle 0↔1, but the nodes are in different partitions: each sees
	// zero same-color neighbors, so both are trimmed as size-1 SCCs —
	// color boundaries count as detached edges.
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	color, comp := freshState(2)
	color[1] = 7
	res, _ := Par(nil, g, color, comp, nil, newArena(t, 1))
	if res.Removed != 2 {
		t.Fatalf("removed %d, want 2", res.Removed)
	}
}

func TestParTrimDAGFullyTrims(t *testing.T) {
	// Patents analog: an acyclic graph must be entirely decomposed by
	// Trim alone (§5's observation for the Patent graph).
	g := gen.CitationDAG(3000, 4, 9)
	color, comp := freshState(3000)
	res, alive := Par(nil, g, color, comp, nil, newArena(t, 4))
	if res.Removed != 3000 || len(alive) != 0 {
		t.Fatalf("removed=%d alive=%d, want full trim", res.Removed, len(alive))
	}
}

func TestParTrimMatchesSequentialOnRandom(t *testing.T) {
	// Parallel trim must remove exactly the nodes not on any cycle
	// reachable... more precisely: iterated 0-in/0-out peeling has a
	// unique fixpoint; compare against a sequential reference.
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		n := 20 + rng.Intn(100)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		want := sequentialTrimFixpoint(g)
		color, comp := freshState(n)
		_, alive := Par(nil, g, color, comp, nil, newArena(t, 4))
		got := map[graph.NodeID]bool{}
		for _, v := range alive {
			got[v] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d survivors, want %d", trial, len(got), len(want))
		}
		for v := range want {
			if !got[v] {
				t.Fatalf("trial %d: node %d should survive", trial, v)
			}
		}
	}
}

// sequentialTrimFixpoint peels zero-in/zero-out-degree nodes (self-loops
// excluded) until none remain, returning the survivors.
func sequentialTrimFixpoint(g *graph.Graph) map[graph.NodeID]bool {
	n := g.NumNodes()
	alive := map[graph.NodeID]bool{}
	for v := 0; v < n; v++ {
		alive[graph.NodeID(v)] = true
	}
	for changed := true; changed; {
		changed = false
		for v := range alive {
			in, out := 0, 0
			for _, k := range g.In(v) {
				if k != v && alive[k] {
					in++
				}
			}
			for _, k := range g.Out(v) {
				if k != v && alive[k] {
					out++
				}
			}
			if in == 0 || out == 0 {
				delete(alive, v)
				changed = true
			}
		}
	}
	return alive
}

func TestParTrim2IsolatedTwoCycle(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	color, comp := freshState(2)
	res, alive := Par2(nil, g, color, comp, nil, newArena(t, 2))
	if res.SCCs != 1 || res.Removed != 2 {
		t.Fatalf("res = %+v, want one pair", res)
	}
	if len(alive) != 0 {
		t.Fatalf("alive = %v", alive)
	}
	if comp[0] != 0 || comp[1] != 0 {
		t.Fatalf("comp = %v, want both 0", comp[:2])
	}
}

func TestParTrim2PatternA(t *testing.T) {
	// Figure 4(a): 2-cycle A↔B with extra OUTgoing edges but no other
	// incoming edges. A=0, B=1, sinks 2 and 3 (removed from candidates
	// to isolate the pattern; they'd be size-1 trims anyway).
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 0},
		{From: 0, To: 2}, {From: 1, To: 3}})
	color, comp := freshState(4)
	res, _ := Par2(nil, g, color, comp, []graph.NodeID{0, 1}, newArena(t, 1))
	if res.SCCs != 1 {
		t.Fatalf("SCCs = %d, want 1", res.SCCs)
	}
	if comp[0] != 0 || comp[1] != 0 {
		t.Fatalf("comp = %v", comp)
	}
}

func TestParTrim2PatternB(t *testing.T) {
	// Figure 4(b): 2-cycle A↔B with extra INcoming edges but no other
	// outgoing edges. Sources 2,3 point at the pair.
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 0},
		{From: 2, To: 0}, {From: 3, To: 1}})
	color, comp := freshState(4)
	res, _ := Par2(nil, g, color, comp, []graph.NodeID{0, 1}, newArena(t, 1))
	if res.SCCs != 1 {
		t.Fatalf("SCCs = %d, want 1", res.SCCs)
	}
}

func TestParTrim2SkipsLargerCycle(t *testing.T) {
	// 2-cycle 0↔1 embedded in a larger cycle 0→1→2→0: NOT a size-2 SCC
	// (node 1 has in-degree 1 but node 0 has in-degree 2).
	g := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2}, {From: 2, To: 0}})
	color, comp := freshState(3)
	res, alive := Par2(nil, g, color, comp, nil, newArena(t, 2))
	if res.SCCs != 0 {
		t.Fatalf("SCCs = %d, want 0 (pair is inside a 3-cycle)", res.SCCs)
	}
	if len(alive) != 3 {
		t.Fatalf("alive = %v, want all 3", alive)
	}
}

func TestParTrim2ChainOfPairs(t *testing.T) {
	// §3.4: a weakly connected chain of 2-cycles. Pairs (0,1), (2,3),
	// (4,5) joined by edges 1→2, 3→4. All pairs share pattern (a)
	// except interior in-degrees; at least the head pair must be found,
	// and after removal the rest become detectable — but Trim2 runs only
	// ONCE, so only pairs whose pattern holds in the initial graph are
	// claimed. Here pair (0,1) has no external in-edges → claimed.
	g := graph.FromEdges(6, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 0},
		{From: 2, To: 3}, {From: 3, To: 2},
		{From: 4, To: 5}, {From: 5, To: 4},
		{From: 1, To: 2}, {From: 3, To: 4}})
	color, comp := freshState(6)
	res, _ := Par2(nil, g, color, comp, nil, newArena(t, 2))
	if res.SCCs < 1 {
		t.Fatalf("SCCs = %d, want >= 1", res.SCCs)
	}
	if comp[0] != 0 || comp[1] != 0 {
		t.Fatal("head pair not claimed")
	}
	// Pattern (b) also matches the tail pair (4,5): no outgoing edges.
	if comp[4] != 4 || comp[5] != 4 {
		t.Fatal("tail pair not claimed")
	}
}

func TestParTrim2NoDoubleClaim(t *testing.T) {
	// Many isolated 2-cycles processed with many workers: each pair
	// must be claimed exactly once (SCCs == n/2).
	const pairs = 2000
	b := graph.NewBuilder(pairs * 2)
	for p := 0; p < pairs; p++ {
		a, c := graph.NodeID(2*p), graph.NodeID(2*p+1)
		b.AddEdge(a, c)
		b.AddEdge(c, a)
	}
	g := b.Build()
	color, comp := freshState(pairs * 2)
	res, alive := Par2(nil, g, color, comp, nil, newArena(t, 8))
	if res.SCCs != pairs {
		t.Fatalf("SCCs = %d, want %d", res.SCCs, pairs)
	}
	if len(alive) != 0 {
		t.Fatalf("%d survivors", len(alive))
	}
	for p := 0; p < pairs; p++ {
		if comp[2*p] != int32(2*p) || comp[2*p+1] != int32(2*p) {
			t.Fatalf("pair %d comp wrong: %d %d", p, comp[2*p], comp[2*p+1])
		}
	}
}

// TestParTrim2SurvivorsExcludeLateClaims pins the survivor list
// against a node claimed after its own scan kept it. Scanned in id
// order on one worker, node 0 has two alive in- and out-neighbors and
// survives; the pairs {1,2} and {3,4} are then claimed, which leaves
// 0↔5 an isolated 2-cycle that node 5's scan claims.
func TestParTrim2SurvivorsExcludeLateClaims(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{
		{From: 1, To: 2}, {From: 2, To: 1}, {From: 1, To: 0},
		{From: 3, To: 4}, {From: 4, To: 3}, {From: 0, To: 3},
		{From: 0, To: 5}, {From: 5, To: 0},
	})
	color, comp := freshState(6)
	res, alive := Par2(nil, g, color, comp, nil, newArena(t, 1))
	if res.SCCs != 3 {
		t.Fatalf("SCCs = %d, want 3", res.SCCs)
	}
	if len(alive) != 0 {
		t.Fatalf("survivors %v, want none", alive)
	}
}

// TestTrim2ClaimsAreRealSCCs cross-checks Trim2 claims against Tarjan
// on random graphs: every claimed pair must be a genuine size-2 SCC.
func TestTrim2ClaimsAreRealSCCs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(80)
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		// Seed extra 2-cycles so the pattern actually occurs.
		for i := 0; i < n/4; i++ {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v {
				b.AddEdge(u, v)
				b.AddEdge(v, u)
			}
		}
		g := b.Build()
		tc, _ := seq.Tarjan(g)
		tarjanSize := map[int32]int{}
		for _, c := range tc {
			tarjanSize[c]++
		}
		color, comp := freshState(n)
		Par2(nil, g, color, comp, nil, newArena(t, 4))
		for v := 0; v < n; v++ {
			if comp[v] < 0 {
				continue
			}
			// v was claimed: its Tarjan component must have size 2 and
			// its claimed partner must share the Tarjan component.
			if tarjanSize[tc[v]] != 2 {
				t.Fatalf("trial %d: node %d claimed but Tarjan SCC size %d", trial, v, tarjanSize[tc[v]])
			}
			partner := comp[v]
			if tc[partner] != tc[v] {
				t.Fatalf("trial %d: pair (%d,%d) not a Tarjan SCC", trial, v, partner)
			}
		}
	}
}

// BenchmarkParTrimRMAT runs GOMAXPROCS workers on a retained arena of
// that size, as the engine does, so -cpu sets the worker count.
func BenchmarkParTrimRMAT(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(14, 8, 1))
	n := g.NumNodes()
	workers := runtime.GOMAXPROCS(0)
	ar := scratch.New(workers, nil)
	defer ar.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		color, comp := freshState(n)
		_, out := Par(nil, g, color, comp, nil, ar)
		ar.PutNodes(out)
	}
}
