package trim

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/scratch"
)

func TestPeelFigure1b(t *testing.T) {
	// Same chain as TestParTrimFigure1b: the peel must remove all five
	// nodes. The id-ascending chain mostly falls to the cascade round;
	// the zig-zag test below pins genuinely multi-wave peeling.
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 3, To: 2}, {From: 2, To: 4}})
	color, comp := freshState(5)
	res, alive := Peel(nil, g, color, comp, nil, newArena(t, 2))
	if res.Removed != 5 {
		t.Fatalf("removed %d, want 5", res.Removed)
	}
	if len(alive) != 0 {
		t.Fatalf("alive = %v, want empty", alive)
	}
	for v := 0; v < 5; v++ {
		if comp[v] != int32(v) || color[v] != Removed {
			t.Fatalf("node %d: comp=%d color=%d", v, comp[v], color[v])
		}
	}
}

// zigzagPath builds a path whose ids alternate between the two ends of
// the id range, so no single scan direction cascades: the cascade
// round only takes the endpoints, and the rest must peel wave by wave
// through the support-pointer frontier.
func zigzagPath(n int) *graph.Graph {
	id := func(pos int) graph.NodeID {
		if pos%2 == 0 {
			return graph.NodeID(pos / 2)
		}
		return graph.NodeID(n - 1 - pos/2)
	}
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: id(i), To: id(i + 1)}
	}
	return graph.FromEdges(n, edges)
}

func TestPeelZigZagMultiWave(t *testing.T) {
	const n = 40
	g := zigzagPath(n)
	for _, workers := range []int{1, 2} {
		color, comp := freshState(n)
		res, alive := Peel(nil, g, color, comp, nil, newArena(t, workers))
		if res.Removed != n || len(alive) != 0 {
			t.Fatalf("w=%d: removed=%d alive=%d, want full trim", workers, res.Removed, len(alive))
		}
		if res.Rounds < 5 {
			t.Fatalf("w=%d: rounds = %d, want >= 5 (multi-wave peel)", workers, res.Rounds)
		}
	}
}

func TestPeelPreservesCycle(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, // triangle
		{From: 2, To: 3}, {From: 3, To: 4}}) // tail
	color, comp := freshState(5)
	res, alive := Peel(nil, g, color, comp, nil, newArena(t, 4))
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

func TestPeelSelfLoopIsTrimmed(t *testing.T) {
	g := graph.FromEdges(1, []graph.Edge{{From: 0, To: 0}})
	color, comp := freshState(1)
	res, alive := Peel(nil, g, color, comp, nil, newArena(t, 1))
	if res.Removed != 1 || len(alive) != 0 {
		t.Fatalf("removed=%d alive=%v", res.Removed, alive)
	}
}

func TestPeelRespectsColors(t *testing.T) {
	// 2-cycle across a color boundary: both sides count zero same-color
	// neighbors and seed the first wave.
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	color, comp := freshState(2)
	color[1] = 7
	res, _ := Peel(nil, g, color, comp, nil, newArena(t, 1))
	if res.Removed != 2 {
		t.Fatalf("removed %d, want 2", res.Removed)
	}
}

func TestPeelDAGFullyTrims(t *testing.T) {
	g := gen.CitationDAG(3000, 4, 9)
	color, comp := freshState(3000)
	res, alive := Peel(nil, g, color, comp, nil, newArena(t, 4))
	if res.Removed != 3000 || len(alive) != 0 {
		t.Fatalf("removed=%d alive=%d, want full trim", res.Removed, len(alive))
	}
}

// TestPeelMatchesPar differentially pins the peel against the
// round-based kernel on random graphs: identical survivor sets and
// identical color/comp arrays (both kernels assign comp[v] = v to
// every node they remove), across worker counts and with restricted
// candidate lists.
func TestPeelMatchesPar(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(150)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		var candidates []graph.NodeID
		if trial%3 == 0 {
			// A random strict subset: the peel must not touch (or be
			// confused by) non-candidate neighbors.
			for v := 0; v < n; v++ {
				if rng.Intn(4) > 0 {
					candidates = append(candidates, graph.NodeID(v))
				}
			}
		}
		pcolor, pcomp := freshState(n)
		pres, palive := Par(nil, g, pcolor, pcomp, candidates, newArena(t, 4))
		for _, workers := range []int{1, 4} {
			color, comp := freshState(n)
			res, alive := Peel(nil, g, color, comp, candidates, newArena(t, workers))
			if res.Removed != pres.Removed || res.SCCs != pres.SCCs {
				t.Fatalf("trial %d w=%d: res=%+v, Par got %+v", trial, workers, res, pres)
			}
			if len(alive) != len(palive) {
				t.Fatalf("trial %d w=%d: %d survivors, Par got %d", trial, workers, len(alive), len(palive))
			}
			survives := map[graph.NodeID]bool{}
			for _, v := range palive {
				survives[v] = true
			}
			for _, v := range alive {
				if !survives[v] {
					t.Fatalf("trial %d w=%d: node %d survived only under Peel", trial, workers, v)
				}
			}
			for v := 0; v < n; v++ {
				if color[v] != pcolor[v] || comp[v] != pcomp[v] {
					t.Fatalf("trial %d w=%d: node %d color/comp (%d,%d), Par got (%d,%d)",
						trial, workers, v, color[v], comp[v], pcolor[v], pcomp[v])
				}
			}
		}
	}
}

// TestPeelArenaReuse runs the peel repeatedly through one arena over
// different graphs and candidate subsets, checking the marks-clearing
// contract: stale marks from a previous invocation must never leak a
// non-candidate into the next one.
func TestPeelArenaReuse(t *testing.T) {
	ar := scratch.New(2, nil)
	defer ar.Close()
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(120)
		b := graph.NewBuilder(n)
		for i := 0; i < n*2; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		var candidates []graph.NodeID
		for v := 0; v < n; v++ {
			if rng.Intn(3) > 0 {
				candidates = append(candidates, graph.NodeID(v))
			}
		}
		pcolor, pcomp := freshState(n)
		Par(nil, g, pcolor, pcomp, candidates, newArena(t, 2))
		color, comp := freshState(n)
		_, alive := Peel(nil, g, color, comp, candidates, ar)
		for v := 0; v < n; v++ {
			if color[v] != pcolor[v] || comp[v] != pcomp[v] {
				t.Fatalf("trial %d: node %d diverges from Par after arena reuse", trial, v)
			}
		}
		ar.PutNodes(alive)
	}
}

// waveLog records the TrimRound events of one kernel invocation.
type waveLog []events.Event

func (l *waveLog) Observe(ev events.Event) {
	if ev.Type == events.TrimRound {
		*l = append(*l, ev)
	}
}

// withSelfLoops returns g plus a self-loop on every seventh node.
func withSelfLoops(g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, k := range g.Out(graph.NodeID(v)) {
			b.AddEdge(graph.NodeID(v), k)
		}
		if v%7 == 0 {
			b.AddEdge(graph.NodeID(v), graph.NodeID(v))
		}
	}
	return b.Build()
}

// TestPeelDrainDifferential pins the support-pointer drain against the
// round-based kernel where the drain runs wide enough for the
// multi-worker path: ~2^14-node R-MAT and road-lattice graphs with
// self-loops, three random colors and random candidate subsets, at
// 1/2/4/8 workers, comparing every node's color and comp. Some wave
// after the cascade must exceed the coordinator-drain bound.
func TestPeelDrainDifferential(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat": withSelfLoops(gen.RMAT(gen.DefaultRMAT(14, 4, 21))),
		"road": withSelfLoops(gen.RoadLattice(gen.RoadLatticeConfig{Rows: 128, Cols: 128, TwoWayProb: 0.3, Seed: 22})),
	}
	rng := rand.New(rand.NewSource(23))
	wideWave := false
	for name, g := range graphs {
		n := g.NumNodes()
		for trial := 0; trial < 3; trial++ {
			base := make([]int32, n)
			for v := range base {
				base[v] = int32(rng.Intn(3))
			}
			var candidates []graph.NodeID
			if trial > 0 {
				for v := 0; v < n; v++ {
					if rng.Intn(5) > 0 {
						candidates = append(candidates, graph.NodeID(v))
					}
				}
			}
			pcolor, pcomp := freshState(n)
			copy(pcolor, base)
			pres, _ := Par(nil, g, pcolor, pcomp, candidates, newArena(t, 4))
			for _, workers := range []int{1, 2, 4, 8} {
				ar := scratch.New(workers, nil)
				color, comp := freshState(n)
				copy(color, base)
				var log waveLog
				res, _ := Peel(events.NewSink(context.Background(), &log), g, color, comp, candidates, ar)
				ar.Close()
				if res.Removed != pres.Removed {
					t.Fatalf("%s/%d w=%d: removed %d, Par removed %d", name, trial, workers, res.Removed, pres.Removed)
				}
				for v := 0; v < n; v++ {
					if color[v] != pcolor[v] || comp[v] != pcomp[v] {
						t.Fatalf("%s/%d w=%d: node %d color/comp (%d,%d), Par got (%d,%d)",
							name, trial, workers, v, color[v], comp[v], pcolor[v], pcomp[v])
					}
				}
				for _, ev := range log {
					if workers > 1 && ev.Round > 1 && ev.Nodes > 64 {
						wideWave = true
					}
				}
			}
		}
	}
	if !wideWave {
		t.Fatal("no wave after the cascade exceeded the coordinator-drain bound; the multi-worker drain went untested")
	}
}

// TestPeelDrainHighFanIn pins a node whose current support and next
// supports are claimed in the same wave. Source s (scanned last, so
// it is the cascade's only removal) feeds a_i and x_i; a_i feeds y_i;
// every x_i and y_i feeds t, whose support starts at x_0. The drain of
// s claims every a_i and x_i (round 2); draining them claims every y_i
// while x_0's drain moves t's pointer. The y_i still support t — they
// leave its list only when their own wave drains — so t falls in round
// 4, not round 3, at every worker count. t's successor u survives in a
// 2-cycle with w. The graph fits one cascade chunk, so the cascade
// scans in id order at every worker count, while round 2 exceeds the
// coordinator-drain bound and drains in parallel.
func TestPeelDrainHighFanIn(t *testing.T) {
	const f = 40
	a := func(i int) graph.NodeID { return graph.NodeID(i) }
	x := func(i int) graph.NodeID { return graph.NodeID(f + i) }
	y := func(i int) graph.NodeID { return graph.NodeID(2*f + i) }
	tn, u, w, s := graph.NodeID(3*f), graph.NodeID(3*f+1), graph.NodeID(3*f+2), graph.NodeID(3*f+3)
	var edges []graph.Edge
	for i := 0; i < f; i++ {
		edges = append(edges,
			graph.Edge{From: s, To: a(i)}, graph.Edge{From: s, To: x(i)},
			graph.Edge{From: a(i), To: y(i)}, graph.Edge{From: x(i), To: tn}, graph.Edge{From: y(i), To: tn})
	}
	edges = append(edges, graph.Edge{From: tn, To: u}, graph.Edge{From: u, To: w}, graph.Edge{From: w, To: u})
	n := int(s) + 1
	g := graph.FromEdges(n, edges)
	for _, workers := range []int{1, 2, 4, 8} {
		ar := scratch.New(workers, nil)
		color, comp := freshState(n)
		var log waveLog
		res, alive := Peel(events.NewSink(context.Background(), &log), g, color, comp, nil, ar)
		ar.Close()
		want := []int64{1, 2 * f, f, 1}
		got := make([]int64, len(log))
		for i, ev := range log {
			got[i] = ev.Nodes
		}
		if res.Rounds != 4 || !slices.Equal(got, want) {
			t.Fatalf("w=%d: rounds=%d wave sizes %v, want 4 rounds of %v", workers, res.Rounds, got, want)
		}
		if len(alive) != 2 || color[u] != 0 || color[w] != 0 {
			t.Fatalf("w=%d: survivors %v, want [%d %d]", workers, alive, u, w)
		}
	}
}

// TestPeelDrainSkippedOnBestCase pins §6.4's best-case guards: an
// id-sorted DAG falls entirely to a single-worker cascade and a single
// cycle loses nothing to it at any worker count, so neither runs a
// drain wave or pushes a node.
func TestPeelDrainSkippedOnBestCase(t *testing.T) {
	const n = 2000
	ring := make([]graph.Edge, n)
	for i := range ring {
		ring[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID((i + 1) % n)}
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		workers []int
		removed int64
	}{
		{"dag", gen.CitationDAG(n, 4, 9), []int{1}, n},
		{"cycle", graph.FromEdges(n, ring), []int{1, 4}, 0},
	}
	for _, tc := range cases {
		for _, workers := range tc.workers {
			ctr := new(metrics.Counters)
			ar := scratch.New(workers, ctr)
			color, comp := freshState(n)
			res, _ := Peel(nil, tc.g, color, comp, nil, ar)
			ar.Close()
			if res.Rounds != 1 || res.Removed != tc.removed || ctr.TrimPushes.Load() != 0 {
				t.Fatalf("%s w=%d: rounds=%d removed=%d pushes=%d, want 1 round, %d removed, no pushes",
					tc.name, workers, res.Rounds, res.Removed, ctr.TrimPushes.Load(), tc.removed)
			}
		}
	}
}
