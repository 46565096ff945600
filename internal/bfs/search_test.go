package bfs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/metrics"
	"repro/internal/scratch"
	"repro/internal/seq"
)

// searchGraph is one graph the Search tests traverse from seed, and
// whether a search from there reaches a level too large for the
// opening.
type searchGraph struct {
	name   string
	g      *graph.Graph
	seed   graph.NodeID
	pauses bool
}

// searchGraphs returns an R-MAT giant, whose hub seed fans out past
// inlineFrontier at once, and a road lattice seeded inside its largest
// SCC, whose hundreds of levels all stay small.
func searchGraphs() []searchGraph {
	road := gen.RoadLattice(gen.RoadLatticeConfig{Rows: 128, Cols: 128, TwoWayProb: 0.05, Seed: 2})
	comp, _ := seq.Tarjan(road)
	sizes := map[int32]int{}
	var seed graph.NodeID
	for v, c := range comp {
		sizes[c]++
		if sizes[c] > sizes[comp[seed]] {
			seed = graph.NodeID(v)
		}
	}
	return []searchGraph{
		{"rmat", gen.RMAT(gen.DefaultRMAT(15, 10, 1)), 0, true},
		{"road", road, seed, false},
	}
}

// TestSearchPauseResume pauses a search where Open stops, at its first
// level above inlineFrontier, and resumes it with Finish: the search
// must claim what one uninterrupted Run claims, leaving the same
// colors, per-transition counts and level count. It covers both
// directions, the one- and two-transition tables and 1, 2 and 4
// workers. Level counts are compared where they are deterministic: at
// one worker, and top-down, since a parallel bottom-up sweep merges
// levels in whatever order its chunks run.
func TestSearchPauseResume(t *testing.T) {
	for _, sg := range searchGraphs() {
		g, n := sg.g, sg.g.NumNodes()
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
				for _, dir := range []direction{adaptive, forceTopDown} {
					for _, workers := range []int{1, 2, 4} {
						where := fmt.Sprintf("%s, %d transitions, reverse=%v, direction %d, workers=%d",
							sg.name, len(tb.transitions), reverse, dir, workers)
						seeds := []graph.NodeID{sg.seed}

						want := append([]int32(nil), tb.base...)
						want[sg.seed] = tb.seedColor
						var wantCtr metrics.Counters
						ar := scratch.New(workers, &wantCtr)
						wantRes := run(nil, g, reverse, seeds, want, tb.transitions, ar, cand, dir)
						ar.Close()

						got := append([]int32(nil), tb.base...)
						got[sg.seed] = tb.seedColor
						var ctr metrics.Counters
						ar = scratch.New(workers, &ctr)
						var s Search
						s.start(g, reverse, seeds, got, tb.transitions, ar, cand, dir)
						s.Open(nil, ar)
						opened := s.res.Levels
						switch {
						case sg.pauses && len(s.frontier) <= inlineFrontier:
							t.Fatalf("%s: Open stopped at a frontier of %d nodes", where, len(s.frontier))
						case !sg.pauses && len(s.frontier) != 0:
							t.Fatalf("%s: Open paused at a frontier of %d nodes", where, len(s.frontier))
						}
						res := s.Finish(nil, ar)
						ar.Close()

						if opened == 0 || (sg.pauses && res.Levels <= opened) {
							t.Fatalf("%s: opened %d of %d levels", where, opened, res.Levels)
						}
						if res.Claimed != wantRes.Claimed {
							t.Fatalf("%s: claimed %v, want %v", where, res.Claimed, wantRes.Claimed)
						}
						for v := range got {
							if got[v] != want[v] {
								t.Fatalf("%s: node %d color %d, want %d", where, v, got[v], want[v])
							}
						}
						if workers > 1 && dir != forceTopDown {
							continue
						}
						if res.Levels != wantRes.Levels {
							t.Fatalf("%s: %d levels, want %d", where, res.Levels, wantRes.Levels)
						}
						if a, b := ctr.Snapshot(), wantCtr.Snapshot(); a.FrontierNodes != b.FrontierNodes || a.BitmapLevels != b.BitmapLevels {
							t.Fatalf("%s: frontier nodes %d, bottom-up levels %d; want %d, %d",
								where, a.FrontierNodes, a.BitmapLevels, b.FrontierNodes, b.BitmapLevels)
						}
					}
				}
			}
		}
	}
}

// TestSearchPauseResumeSideBySide runs phase 1's color encoding: the
// pivot starts as the SCC color, the forward search claims with
// {c → cfw, cbw → cscc} and the backward one with {c → cbw, cfw →
// cscc}. Both open at once on the gang and are then finished one
// after the other, and the result must match running them one after
// the other from the start: the same colors, each search claiming
// exactly the nodes it reaches, and the SCC size split between the two
// searches' cscc claims. A search that lost a claim without retrying
// would leave a node cfw or cbw that both searches reach.
func TestSearchPauseResumeSideBySide(t *testing.T) {
	const c, cfw, cbw, cscc = 0, 1, 2, 3
	fwTrans := []Transition{{From: c, To: cfw}, {From: cbw, To: cscc}}
	bwTrans := []Transition{{From: c, To: cbw}, {From: cfw, To: cscc}}
	total := func(r Result) int64 { return r.Claimed[0] + r.Claimed[1] }
	for _, sg := range searchGraphs() {
		g := sg.g
		cand := allNodes(g)
		seeds := []graph.NodeID{sg.seed}

		want := make([]int32, g.NumNodes())
		want[sg.seed] = cscc
		ar := scratch.New(1, nil)
		wantFW := Run(nil, g, false, seeds, want, fwTrans, ar, cand...)
		wantBW := Run(nil, g, true, seeds, want, bwTrans, ar, cand...)
		ar.Close()

		for _, workers := range []int{2, 4} {
			for rep := 0; rep < 3; rep++ {
				where := fmt.Sprintf("%s, workers=%d, rep %d", sg.name, workers, rep)
				got := make([]int32, g.NumNodes())
				got[sg.seed] = cscc
				ar := scratch.New(workers, nil)
				var fw, bw Search
				fw.Start(g, false, seeds, got, fwTrans, ar, cand)
				bw.Start(g, true, seeds, got, bwTrans, ar, cand)
				ar.Gang().Run(func(w int) {
					switch w {
					case 0:
						fw.Open(nil, ar)
					case 1:
						bw.Open(nil, ar)
					}
				})
				fwRes := fw.Finish(nil, ar)
				bwRes := bw.Finish(nil, ar)
				ar.Close()

				for v := range got {
					if got[v] != want[v] {
						t.Fatalf("%s: node %d color %d, want %d", where, v, got[v], want[v])
					}
				}
				if total(fwRes) != total(wantFW) || total(bwRes) != total(wantBW) {
					t.Fatalf("%s: searches claimed %d and %d nodes, want %d and %d",
						where, total(fwRes), total(bwRes), total(wantFW), total(wantBW))
				}
				if scc := fwRes.Claimed[1] + bwRes.Claimed[1]; scc != wantBW.Claimed[1] {
					t.Fatalf("%s: %d cscc claims, want %d", where, scc, wantBW.Claimed[1])
				}
			}
		}
	}
}
