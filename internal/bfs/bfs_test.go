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
			color[src] = 5
			res := Run(nil, g, false, []graph.NodeID{src}, color,
				[]Transition{{From: 0, To: 5}}, newArena(t, workers))
			claimed := res.Claimed[0]
			if claimed != int64(len(want)-1) {
				t.Fatalf("trial %d workers %d: claimed %d, want %d", trial, workers, claimed, len(want)-1)
			}
			for v := 0; v < n; v++ {
				gotVisited := color[v] == 5
				if gotVisited != want[graph.NodeID(v)] {
					t.Fatalf("trial %d: node %d visited=%v want=%v", trial, v, gotVisited, want[graph.NodeID(v)])
				}
			}
		}
	}
}

func TestRunBackward(t *testing.T) {
	// 0→1→2: backward from 2 reaches {2,1,0}.
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	color := []int32{0, 0, 9}
	res := Run(nil, g, true, []graph.NodeID{2}, color, []Transition{{From: 0, To: 9}}, newArena(t, 2))
	if res.Claimed[0] != 2 {
		t.Fatalf("claimed %d, want 2", res.Claimed[0])
	}
	for v, c := range color {
		if c != 9 {
			t.Fatalf("node %d color %d", v, c)
		}
	}
}

func TestRunRespectsColorBoundary(t *testing.T) {
	// Path 0→1→2→3 with node 2 colored differently: BFS from 0 must
	// stop at the boundary and not claim 2 or 3.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}})
	color := []int32{7, 0, 1, 0}
	res := Run(nil, g, false, []graph.NodeID{0}, color, []Transition{{From: 0, To: 7}}, newArena(t, 2))
	if res.Claimed[0] != 1 {
		t.Fatalf("claimed %d, want 1", res.Claimed[0])
	}
	if color[2] != 1 || color[3] != 0 {
		t.Fatalf("colors beyond boundary mutated: %v", color)
	}
}

func TestRunTwoTransitions(t *testing.T) {
	// The backward sweep of FW-BW: color c=0 → cbw=2, cfw=1 → cscc=3.
	// Graph: 0↔1 cycle (both will be FW from 0), 2→0 (BW only).
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}, {From: 2, To: 0}})
	color := []int32{1, 1, 0} // fwd pass already colored 0,1 as cfw=1
	color[0] = 3              // pivot claimed as cscc before backward sweep
	res := Run(nil, g, true, []graph.NodeID{0}, color,
		[]Transition{{From: 0, To: 2}, {From: 1, To: 3}}, newArena(t, 2))
	if res.Claimed[0] != 1 { // node 2 → cbw
		t.Fatalf("cbw claims = %d, want 1", res.Claimed[0])
	}
	if res.Claimed[1] != 1 { // node 1 → cscc
		t.Fatalf("cscc claims = %d, want 1", res.Claimed[1])
	}
	if color[1] != 3 || color[2] != 2 {
		t.Fatalf("final colors %v", color)
	}
}

func TestRunRejectsThreeTransitions(t *testing.T) {
	// Range bodies tally claims in a two-entry array.
	defer func() {
		if recover() == nil {
			t.Fatal("Run accepted a three-transition table")
		}
	}()
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	Run(nil, g, false, []graph.NodeID{0}, []int32{1, 0},
		[]Transition{{From: 0, To: 1}, {From: 2, To: 3}, {From: 4, To: 5}}, newArena(t, 1))
}

func TestRunEmptySeeds(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	res := Run(nil, g, false, nil, make([]int32, 2), []Transition{{From: 0, To: 1}}, newArena(t, 2))
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
	color := make([]int32, 6)
	color[0] = 1
	res := Run(nil, g, false, []graph.NodeID{0}, color, []Transition{{From: 0, To: 1}}, newArena(t, 1))
	if res.Claimed[0] != 5 {
		t.Fatalf("claimed %d, want 5", res.Claimed[0])
	}
	if res.Levels != 6 {
		t.Fatalf("levels = %d, want 6", res.Levels)
	}
}

// TestRunParallelDeterministicClaims pins that the claimed set does not
// depend on the worker count. On benchGiant's graph, forward and
// backward, with the one-transition table and the backward sweep's
// two-transition one, and under every schedule, the 2- and 8-worker
// runs claim what the 1-worker run claims per transition and leave the
// same colors; top-down runs also take the same number of levels. The
// graph is large enough that levels run on the gang in many chunks.
func TestRunParallelDeterministicClaims(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(15, 10, 1))
	n := g.NumNodes()
	cand := allNodes(g)
	// Half the nodes precolored cfw=1, as after a forward sweep.
	rng := rand.New(rand.NewSource(4))
	half := make([]int32, n)
	for v := range half {
		if rng.Intn(2) == 0 {
			half[v] = 1
		}
	}
	tables := []struct {
		base        []int32
		seedColor   int32
		transitions []Transition
	}{
		{make([]int32, n), 1, []Transition{{From: 0, To: 1}}},
		{half, 3, []Transition{{From: 0, To: 2}, {From: 1, To: 3}}},
	}
	for _, tb := range tables {
		for _, reverse := range []bool{false, true} {
			for _, dir := range []direction{adaptive, forceTopDown, forceBottomUp} {
				var wantClaimed [maxTransitions]int64
				var wantColor []int32
				var wantLevels int
				for _, workers := range []int{1, 2, 8} {
					color := append([]int32(nil), tb.base...)
					color[0] = tb.seedColor
					var ctr metrics.Counters
					ar := scratch.New(workers, &ctr)
					res := run(nil, g, reverse, []graph.NodeID{0}, color, tb.transitions, ar, cand, dir)
					claimed := res.Claimed
					ar.Close()
					where := fmt.Sprintf("%d transitions, reverse=%v, direction %d, workers=%d",
						len(tb.transitions), reverse, dir, workers)
					if peak := ctr.Snapshot().FrontierPeak; peak <= inlineFrontier {
						t.Fatalf("%s: frontier peak %d never leaves the coordinator", where, peak)
					}
					if workers == 1 {
						wantClaimed, wantColor, wantLevels = claimed, color, res.Levels
						continue
					}
					if claimed != wantClaimed {
						t.Fatalf("%s: claimed %v, want %v", where, claimed, wantClaimed)
					}
					for v := range color {
						if color[v] != wantColor[v] {
							t.Fatalf("%s: node %d color %d, want %d", where, v, color[v], wantColor[v])
						}
					}
					if dir == forceTopDown && res.Levels != wantLevels {
						t.Fatalf("%s: %d levels, want %d", where, res.Levels, wantLevels)
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(color)
		color[0] = 1
		Run(nil, g, false, []graph.NodeID{0}, color, []Transition{{From: 0, To: 1}}, ar)
	}
}
