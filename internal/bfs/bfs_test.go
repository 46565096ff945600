package bfs

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/metrics"
	"repro/internal/scratch"
)

// newArena returns an arena of the given worker count whose gang is
// closed when the test ends.
func newArena(t testing.TB, workers int) *scratch.Arena {
	ar := scratch.New(workers, nil)
	t.Cleanup(ar.Close)
	return ar
}

// serialReach computes the forward (or backward) reachable set from
// src restricted to nodes of color `from`, as a reference model.
func serialReach(g *graph.Graph, src graph.NodeID, color []int32, from int32, reverse bool) map[graph.NodeID]bool {
	seen := map[graph.NodeID]bool{src: true}
	stack := []graph.NodeID{src}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var nbrs []graph.NodeID
		if reverse {
			nbrs = g.In(v)
		} else {
			nbrs = g.Out(v)
		}
		for _, t := range nbrs {
			if !seen[t] && color[t] == from {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}

// newBits returns a cleared visited bitmap for n nodes.
func newBits(n int) []uint32 { return make([]uint32, (n+31)/32) }

// firstBitDiff returns the first node whose visited bit differs between
// a and b, or -1 when none does.
func firstBitDiff(a, b []uint32, n int) int {
	for v := 0; v < n; v++ {
		if Visited(a, graph.NodeID(v)) != Visited(b, graph.NodeID(v)) {
			return v
		}
	}
	return -1
}

func TestRunMatchesSerialForward(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(3))
		for trial := 0; trial < 20; trial++ {
			n := 10 + rng.Intn(100)
			b := graph.NewBuilder(n)
			for i := 0; i < n*4; i++ {
				b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			}
			g := b.Build()
			src := graph.NodeID(rng.Intn(n))

			want := serialReach(g, src, make([]int32, n), 0, false)

			color := make([]int32, n)
			visited := newBits(n)
			res := Run(nil, g, false, []graph.NodeID{src}, color, 0, visited, newArena(t, workers))
			if res.Claimed != int64(len(want)-1) {
				t.Fatalf("trial %d workers %d: claimed %d, want %d", trial, workers, res.Claimed, len(want)-1)
			}
			for v := 0; v < n; v++ {
				if got := Visited(visited, graph.NodeID(v)); got != want[graph.NodeID(v)] {
					t.Fatalf("trial %d: node %d visited=%v want=%v", trial, v, got, want[graph.NodeID(v)])
				}
				if color[v] != 0 {
					t.Fatalf("trial %d: node %d color %d, want it untouched", trial, v, color[v])
				}
			}
		}
	}
}

func TestRunBackward(t *testing.T) {
	// 0→1→2: backward from 2 reaches {2,1,0}.
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	visited := newBits(3)
	res := Run(nil, g, true, []graph.NodeID{2}, make([]int32, 3), 0, visited, newArena(t, 2))
	if res.Claimed != 2 {
		t.Fatalf("claimed %d, want 2", res.Claimed)
	}
	for v := 0; v < 3; v++ {
		if !Visited(visited, graph.NodeID(v)) {
			t.Fatalf("node %d not visited", v)
		}
	}
}

func TestRunRespectsColorBoundary(t *testing.T) {
	// Path 0→1→2→3 with node 2 in another partition: BFS from 0 must
	// stop at the boundary and not claim 2 or 3.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}})
	color := []int32{0, 0, 1, 0}
	visited := newBits(4)
	res := Run(nil, g, false, []graph.NodeID{0}, color, 0, visited, newArena(t, 2))
	if res.Claimed != 1 {
		t.Fatalf("claimed %d, want 1", res.Claimed)
	}
	if Visited(visited, 2) || Visited(visited, 3) {
		t.Fatalf("nodes beyond the boundary visited: %b", visited[0])
	}
}

// TestRunSearchesShareColors runs FW-BW's two searches from one pivot
// over the same color array, each into its own bitmap: neither writes
// a color, and FW ∩ BW is the pivot's SCC.
func TestRunSearchesShareColors(t *testing.T) {
	// Graph: 0↔1 cycle (FW from 0 reaches both), 2→0 (BW only).
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}, {From: 2, To: 0}})
	color := make([]int32, 3)
	fw, bw := newBits(3), newBits(3)
	ar := newArena(t, 2)
	fwRes := Run(nil, g, false, []graph.NodeID{0}, color, 0, fw, ar)
	bwRes := Run(nil, g, true, []graph.NodeID{0}, color, 0, bw, ar)
	if fwRes.Claimed != 1 || bwRes.Claimed != 2 {
		t.Fatalf("FW claimed %d and BW %d, want 1 and 2", fwRes.Claimed, bwRes.Claimed)
	}
	for v, want := range []bool{true, true, false} {
		if scc := Visited(fw, graph.NodeID(v)) && Visited(bw, graph.NodeID(v)); scc != want {
			t.Fatalf("node %d in FW ∩ BW = %v, want %v", v, scc, want)
		}
	}
	if color[0] != 0 || color[1] != 0 || color[2] != 0 {
		t.Fatalf("colors %v, want them untouched", color)
	}
}

func TestRunEmptySeeds(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	res := Run(nil, g, false, nil, make([]int32, 2), 0, newBits(2), newArena(t, 2))
	if res.Levels != 0 {
		t.Fatalf("levels = %d, want 0", res.Levels)
	}
}

func TestRunLevelsOnPath(t *testing.T) {
	// Path of length 5 → 6 BFS levels (seed level + 5 expansions; the
	// last expansion finds an empty frontier so Levels counts 6).
	edges := make([]graph.Edge, 5)
	for i := range edges {
		edges[i] = graph.Edge{From: graph.NodeID(i), To: graph.NodeID(i + 1)}
	}
	g := graph.FromEdges(6, edges)
	res := Run(nil, g, false, []graph.NodeID{0}, make([]int32, 6), 0, newBits(6), newArena(t, 1))
	if res.Claimed != 5 {
		t.Fatalf("claimed %d, want 5", res.Claimed)
	}
	if res.Levels != 6 {
		t.Fatalf("levels = %d, want 6", res.Levels)
	}
}

// partitions returns the color arrays the worker-count and pause tests
// traverse: one partition, and a random half of the nodes moved to
// another, as a later phase-1 trial or phase 2 sees the graph.
func partitions(n int) [][]int32 {
	rng := rand.New(rand.NewSource(4))
	half := make([]int32, n)
	for v := range half {
		if rng.Intn(2) == 0 {
			half[v] = 1
		}
	}
	return [][]int32{make([]int32, n), half}
}

// TestRunParallelDeterministicClaims pins that neither the claimed set
// nor the level count depends on the worker count. On an R-MAT giant
// and a road lattice (searchGraphs), forward and backward, over one
// partition and over half the graph, and under every schedule, the 2-
// and 4-worker runs claim what the 1-worker run claims, leave the same
// bitmap and take as many levels. The R-MAT graph is large enough that
// its levels run on the gang in many chunks.
func TestRunParallelDeterministicClaims(t *testing.T) {
	for _, sg := range searchGraphs() {
		g, n := sg.g, sg.g.NumNodes()
		cand := allNodes(g)
		for pi, color := range partitions(n) {
			c := color[sg.seed]
			for _, reverse := range []bool{false, true} {
				for _, dir := range []direction{adaptive, forceTopDown, forceBottomUp} {
					var want Result
					var wantBits []uint32
					for _, workers := range []int{1, 2, 4} {
						visited := newBits(n)
						var ctr metrics.Counters
						ar := scratch.New(workers, &ctr)
						res := run(nil, g, reverse, []graph.NodeID{sg.seed}, color, c, visited, ar, cand, dir)
						ar.Close()
						where := fmt.Sprintf("%s, partition %d, reverse=%v, direction %d, workers=%d",
							sg.name, pi, reverse, dir, workers)
						if peak := ctr.Snapshot().FrontierPeak; sg.pauses && peak <= inlineFrontier {
							t.Fatalf("%s: frontier peak %d never leaves the coordinator", where, peak)
						}
						if workers == 1 {
							want, wantBits = res, visited
							continue
						}
						if res.Claimed != want.Claimed {
							t.Fatalf("%s: claimed %d, want %d", where, res.Claimed, want.Claimed)
						}
						if v := firstBitDiff(visited, wantBits, n); v >= 0 {
							t.Fatalf("%s: node %d visited=%v, want %v", where, v,
								Visited(visited, graph.NodeID(v)), Visited(wantBits, graph.NodeID(v)))
						}
						if res.Levels != want.Levels {
							t.Fatalf("%s: %d levels, want %d", where, res.Levels, want.Levels)
						}
					}
				}
			}
		}
	}
}

// The kernel benchmarks run GOMAXPROCS workers on a retained arena of
// that size, as the engine does, so -cpu sets the worker count.
func BenchmarkBFSRMAT(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(14, 8, 1))
	workers := runtime.GOMAXPROCS(0)
	ar := scratch.New(workers, nil)
	defer ar.Close()
	color := make([]int32, g.NumNodes())
	visited := newBits(g.NumNodes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(visited)
		Run(nil, g, false, []graph.NodeID{0}, color, 0, visited, ar)
	}
}
