package bfs

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/metrics"
	"repro/internal/scratch"
)

// allNodes lists every node of g, the widest valid candidate list.
func allNodes(g *graph.Graph) []graph.NodeID {
	c := make([]graph.NodeID, g.NumNodes())
	for i := range c {
		c[i] = graph.NodeID(i)
	}
	return c
}

// runBoth runs the traversal top-down and again under dir with every
// node as a candidate, into two bitmaps over the same colors, checks
// that the claims and visited sets agree, and returns the second run's
// bottom-up level count and total level count.
func runBoth(t *testing.T, g *graph.Graph, reverse bool, seed graph.NodeID,
	color []int32, dir direction) (bottomUp int64, levels int) {
	t.Helper()
	n := g.NumNodes()
	c := color[seed]
	v1 := newBits(n)
	r1 := Run(nil, g, reverse, []graph.NodeID{seed}, color, c, v1, newArena(t, 4))

	v2 := newBits(n)
	var ctr metrics.Counters
	ar := scratch.New(4, &ctr)
	defer ar.Close()
	r2 := run(nil, g, reverse, []graph.NodeID{seed}, color, c, v2, ar, allNodes(g), dir)

	if r1.Claimed != r2.Claimed {
		t.Fatalf("top-down claimed %d, direction %d claimed %d", r1.Claimed, dir, r2.Claimed)
	}
	if v := firstBitDiff(v1, v2, n); v >= 0 {
		t.Fatalf("node %d: top-down visited=%v, direction %d visited=%v",
			v, Visited(v1, graph.NodeID(v)), dir, Visited(v2, graph.NodeID(v)))
	}
	return ctr.Snapshot().BitmapLevels, r2.Levels
}

func TestDirOptMatchesTopDownRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(150)
		b := graph.NewBuilder(n)
		for i := 0; i < n*4; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		seed := graph.NodeID(rng.Intn(n))
		reverse := trial%2 == 0
		for _, dir := range []direction{adaptive, forceBottomUp} {
			runBoth(t, g, reverse, seed, make([]int32, n), dir)
		}
	}
}

func TestDirOptForcedBottomUp(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	n := g.NumNodes()
	bu, levels := runBoth(t, g, false, 7, make([]int32, n), forceBottomUp)
	if bu != int64(levels) {
		t.Fatalf("forced bottom-up ran %d of %d levels bottom-up", bu, levels)
	}
}

func TestDirOptForcedTopDown(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 4))
	n := g.NumNodes()
	if bu, _ := runBoth(t, g, true, 3, make([]int32, n), forceTopDown); bu != 0 {
		t.Fatalf("forced top-down ran %d levels bottom-up", bu)
	}
}

// TestDirOptRespectsPartition sweeps bottom-up inside one partition of
// a graph split in two at random: the sweep must claim what the
// top-down traversal claims, never a node of the other partition,
// even though every node is a candidate.
func TestDirOptRespectsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(100)
		b := graph.NewBuilder(n)
		for i := 0; i < n*4; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		color := make([]int32, n)
		for v := range color {
			if rng.Intn(2) == 0 {
				color[v] = 1
			}
		}
		seed := graph.NodeID(rng.Intn(n))
		runBoth(t, g, true, seed, color, forceBottomUp)
	}
}

func TestDirOptRespectsCandidates(t *testing.T) {
	// Bottom-up levels only ever claim candidates: with the whole
	// reachable set listed nothing is lost, and a node left off the
	// list is never claimed by a bottom-up sweep.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}})
	color := make([]int32, 4)
	res := run(nil, g, false, []graph.NodeID{0}, color, 0, newBits(4),
		newArena(t, 2), []graph.NodeID{1, 2, 3}, forceBottomUp)
	if res.Claimed != 3 {
		t.Fatalf("claimed %d, want 3", res.Claimed)
	}
	visited := newBits(4)
	res = run(nil, g, false, []graph.NodeID{0}, color, 0, visited,
		newArena(t, 2), []graph.NodeID{1, 2}, forceBottomUp)
	if res.Claimed != 2 || Visited(visited, 3) {
		t.Fatalf("claimed %d with visited %b, want 2 and node 3 unclaimed", res.Claimed, visited[0])
	}
}

func TestDirOptEmptySeeds(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	res := run(nil, g, false, nil, make([]int32, 2), 0, newBits(2),
		newArena(t, 2), allNodes(g), forceBottomUp)
	if res.Levels != 0 {
		t.Fatalf("levels = %d", res.Levels)
	}
}

func TestDirOptPlantedGiant(t *testing.T) {
	// On a graph dominated by one giant SCC, both the adaptive and the
	// all-bottom-up schedules claim the exact forward-reachable set.
	p := gen.SmallWorldSCC(5000, 100, 2.5, 10, 1.0, 6)
	g := p.Graph
	n := g.NumNodes()
	// Find a giant-SCC node to seed from.
	counts := map[int]int{}
	for _, c := range p.Comp {
		counts[c]++
	}
	var giantComp int
	for c, sz := range counts {
		if sz == 5000 {
			giantComp = c
		}
	}
	var seed graph.NodeID = -1
	for v, c := range p.Comp {
		if c == giantComp {
			seed = graph.NodeID(v)
			break
		}
	}
	for _, dir := range []direction{adaptive, forceBottomUp} {
		runBoth(t, g, false, seed, make([]int32, n), dir)
	}
}

// TestDirOptDefaultsStayTopDownOnLattice pins the other side of the
// selection: a high-diameter lattice keeps every frontier small next
// to the unclaimed rest, so the default constants never sweep
// bottom-up there.
func TestDirOptDefaultsStayTopDownOnLattice(t *testing.T) {
	g := gen.RoadLattice(gen.RoadLatticeConfig{Rows: 128, Cols: 128, TwoWayProb: 0.05, Seed: 2})
	for _, reverse := range []bool{false, true} {
		bu, levels := runBoth(t, g, reverse, 0, make([]int32, g.NumNodes()), adaptive)
		if bu != 0 {
			t.Fatalf("reverse=%v: %d of %d lattice levels swept bottom-up", reverse, bu, levels)
		}
	}
}

func BenchmarkBFSTopDownGiant(b *testing.B) { benchGiant(b, forceTopDown) }

func BenchmarkBFSAdaptiveGiant(b *testing.B) { benchGiant(b, adaptive) }

// benchGiant sweeps forward from the hub of an R-MAT giant.
func benchGiant(b *testing.B, dir direction) {
	g := gen.RMAT(gen.DefaultRMAT(15, 10, 1))
	cand := allNodes(g)
	color := make([]int32, g.NumNodes())
	visited := newBits(g.NumNodes())
	workers := runtime.GOMAXPROCS(0)
	ar := scratch.New(workers, nil)
	defer ar.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(visited)
		run(nil, g, false, []graph.NodeID{0}, color, 0, visited, ar, cand, dir)
	}
}
