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
// node as a candidate, on identical copies of the color array, checks
// that the claims and final colorings agree, and returns the second
// run's bottom-up level count and total level count.
func runBoth(t *testing.T, g *graph.Graph, reverse bool, seed graph.NodeID,
	baseColor []int32, seedColor int32, transitions []Transition, dir direction) (bottomUp int64, levels int) {
	t.Helper()
	c1 := append([]int32(nil), baseColor...)
	c1[seed] = seedColor
	r1 := Run(nil, g, reverse, []graph.NodeID{seed}, c1, transitions, newArena(t, 4))

	c2 := append([]int32(nil), baseColor...)
	c2[seed] = seedColor
	var ctr metrics.Counters
	ar := scratch.New(4, &ctr)
	defer ar.Close()
	r2 := run(nil, g, reverse, []graph.NodeID{seed}, c2, transitions, ar, allNodes(g), dir)

	for ti := range transitions {
		if r1.Claimed[ti] != r2.Claimed[ti] {
			t.Fatalf("transition %d: top-down claimed %d, direction %d claimed %d",
				ti, r1.Claimed[ti], dir, r2.Claimed[ti])
		}
	}
	for v := range c1 {
		if c1[v] != c2[v] {
			t.Fatalf("node %d: top-down color %d, direction %d color %d", v, c1[v], dir, c2[v])
		}
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
			runBoth(t, g, reverse, seed, make([]int32, n), 5, []Transition{{From: 0, To: 5}}, dir)
		}
	}
}

func TestDirOptForcedBottomUp(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	n := g.NumNodes()
	bu, levels := runBoth(t, g, false, 7, make([]int32, n), 1, []Transition{{From: 0, To: 1}}, forceBottomUp)
	if bu != int64(levels) {
		t.Fatalf("forced bottom-up ran %d of %d levels bottom-up", bu, levels)
	}
}

func TestDirOptForcedTopDown(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 4))
	n := g.NumNodes()
	if bu, _ := runBoth(t, g, true, 3, make([]int32, n), 1, []Transition{{From: 0, To: 1}}, forceTopDown); bu != 0 {
		t.Fatalf("forced top-down ran %d levels bottom-up", bu)
	}
}

func TestDirOptTwoTransitions(t *testing.T) {
	// The FW-BW backward sweep shape with two admissible rewrites.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(100)
		b := graph.NewBuilder(n)
		for i := 0; i < n*4; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		// Pre-color a random half as cfw=1 to emulate a forward pass.
		base := make([]int32, n)
		for v := range base {
			if rng.Intn(2) == 0 {
				base[v] = 1
			}
		}
		seed := graph.NodeID(rng.Intn(n))
		runBoth(t, g, true, seed, base, 3, []Transition{{From: 0, To: 2}, {From: 1, To: 3}}, forceBottomUp)
	}
}

func TestDirOptRespectsCandidates(t *testing.T) {
	// Bottom-up levels only ever claim candidates: with the whole
	// reachable set listed nothing is lost, and a node left off the
	// list is never claimed by a bottom-up sweep.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}})
	color := []int32{9, 0, 0, 0}
	res := run(nil, g, false, []graph.NodeID{0}, color,
		[]Transition{{From: 0, To: 9}}, newArena(t, 2), []graph.NodeID{1, 2, 3}, forceBottomUp)
	if res.Claimed[0] != 3 {
		t.Fatalf("claimed %d, want 3", res.Claimed[0])
	}
	color = []int32{9, 0, 0, 0}
	res = run(nil, g, false, []graph.NodeID{0}, color,
		[]Transition{{From: 0, To: 9}}, newArena(t, 2), []graph.NodeID{1, 2}, forceBottomUp)
	if res.Claimed[0] != 2 || color[3] != 0 {
		t.Fatalf("claimed %d with colors %v, want 2 and node 3 untouched", res.Claimed[0], color)
	}
}

func TestDirOptEmptySeeds(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	res := run(nil, g, false, nil, make([]int32, 2),
		[]Transition{{From: 0, To: 1}}, newArena(t, 2), allNodes(g), forceBottomUp)
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
		runBoth(t, g, false, seed, make([]int32, n), 1, []Transition{{From: 0, To: 1}}, dir)
	}
}

// TestDirOptDefaultsStayTopDownOnLattice pins the other side of the
// selection: a high-diameter lattice keeps every frontier small next
// to the unclaimed rest, so the default constants never sweep
// bottom-up there.
func TestDirOptDefaultsStayTopDownOnLattice(t *testing.T) {
	g := gen.RoadLattice(gen.RoadLatticeConfig{Rows: 128, Cols: 128, TwoWayProb: 0.05, Seed: 2})
	for _, reverse := range []bool{false, true} {
		bu, levels := runBoth(t, g, reverse, 0, make([]int32, g.NumNodes()), 1, []Transition{{From: 0, To: 1}}, adaptive)
		if bu != 0 {
			t.Fatalf("reverse=%v: %d of %d lattice levels swept bottom-up", reverse, bu, levels)
		}
	}
}

func BenchmarkBFSTopDownGiant(b *testing.B) {
	benchGiant(b, forceTopDown, []Transition{{From: 0, To: 1}})
}

func BenchmarkBFSAdaptiveGiant(b *testing.B) {
	benchGiant(b, adaptive, []Transition{{From: 0, To: 1}})
}

// BenchmarkBFSAdaptiveGiantFW runs phase 1's forward table, whose
// second transition claims into the SCC what a concurrent backward
// search reached first; here it never fires, so against
// BenchmarkBFSAdaptiveGiant it times only the second entry's checks.
func BenchmarkBFSAdaptiveGiantFW(b *testing.B) {
	benchGiant(b, adaptive, []Transition{{From: 0, To: 1}, {From: 2, To: 3}})
}

// benchGiant sweeps forward from the hub of an R-MAT giant, seeded with
// the table's last post-claim color as phase 1 seeds the pivot.
func benchGiant(b *testing.B, dir direction, transitions []Transition) {
	g := gen.RMAT(gen.DefaultRMAT(15, 10, 1))
	cand := allNodes(g)
	color := make([]int32, g.NumNodes())
	workers := runtime.GOMAXPROCS(0)
	ar := scratch.New(workers, nil)
	defer ar.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(color)
		color[0] = transitions[len(transitions)-1].To
		run(nil, g, false, []graph.NodeID{0}, color, transitions, ar, cand, dir)
	}
}
