package bfs

import (
	"fmt"
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
// must claim what one uninterrupted Run claims, leaving the same bitmap
// and level count. It covers both directions, one partition and half
// the graph, forced top-down and forced bottom-up as well as the
// adaptive schedule, and 1, 2 and 4 workers, and level counts, frontier
// sizes and bottom-up levels must match too. A forced bottom-up search
// opens nothing, as no level of it runs inline.
func TestSearchPauseResume(t *testing.T) {
	for _, sg := range searchGraphs() {
		g, n := sg.g, sg.g.NumNodes()
		cand := allNodes(g)
		for pi, color := range partitions(n) {
			c := color[sg.seed]
			for _, reverse := range []bool{false, true} {
				for _, dir := range []direction{adaptive, forceTopDown, forceBottomUp} {
					for _, workers := range []int{1, 2, 4} {
						where := fmt.Sprintf("%s, partition %d, reverse=%v, direction %d, workers=%d",
							sg.name, pi, reverse, dir, workers)
						seeds := []graph.NodeID{sg.seed}

						want := newBits(n)
						var wantCtr metrics.Counters
						ar := scratch.New(workers, &wantCtr)
						wantRes := run(nil, g, reverse, seeds, color, c, want, ar, cand, dir)
						ar.Close()

						got := newBits(n)
						var ctr metrics.Counters
						ar = scratch.New(workers, &ctr)
						var s Search
						s.start(g, reverse, seeds, color, c, got, ar, cand, dir)
						s.Open(nil, ar)
						opened := s.levels
						switch {
						case dir == forceBottomUp:
							if opened != 0 {
								t.Fatalf("%s: a forced bottom-up search opened %d levels", where, opened)
							}
						case sg.pauses && len(s.frontier) <= inlineFrontier:
							t.Fatalf("%s: Open stopped at a frontier of %d nodes", where, len(s.frontier))
						case !sg.pauses && len(s.frontier) != 0:
							t.Fatalf("%s: Open paused at a frontier of %d nodes", where, len(s.frontier))
						case opened == 0:
							t.Fatalf("%s: Open ran no level", where)
						}
						res := s.Finish(nil, ar)
						ar.Close()

						if sg.pauses && res.Levels <= opened {
							t.Fatalf("%s: opened %d of %d levels", where, opened, res.Levels)
						}
						if res.Claimed != wantRes.Claimed {
							t.Fatalf("%s: claimed %d, want %d", where, res.Claimed, wantRes.Claimed)
						}
						if v := firstBitDiff(got, want, n); v >= 0 {
							t.Fatalf("%s: node %d visited=%v, want %v", where, v,
								Visited(got, graph.NodeID(v)), Visited(want, graph.NodeID(v)))
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

// TestSearchPauseResumeSideBySide runs phase 1's trial shape: a
// forward and a backward search from one pivot over the same colors,
// each claiming into its own bitmap. Both open at once on the gang and
// are then finished one after the other, and the result must match
// running them one after the other from the start: the same two
// bitmaps, so the same FW ∩ BW, and the same claim counts, with the
// color array untouched. A search that wrote anything the other reads
// would show here as a differing bitmap.
func TestSearchPauseResumeSideBySide(t *testing.T) {
	for _, sg := range searchGraphs() {
		g, n := sg.g, sg.g.NumNodes()
		cand := allNodes(g)
		seeds := []graph.NodeID{sg.seed}
		for pi, color := range partitions(n) {
			c := color[sg.seed]
			wantColor := append([]int32(nil), color...)
			wantFW, wantBW := newBits(n), newBits(n)
			ar := scratch.New(1, nil)
			wantFWRes := Run(nil, g, false, seeds, color, c, wantFW, ar, cand...)
			wantBWRes := Run(nil, g, true, seeds, color, c, wantBW, ar, cand...)
			ar.Close()

			for _, workers := range []int{2, 4} {
				for rep := 0; rep < 3; rep++ {
					where := fmt.Sprintf("%s, partition %d, workers=%d, rep %d", sg.name, pi, workers, rep)
					fwBits, bwBits := newBits(n), newBits(n)
					ar := scratch.New(workers, nil)
					var fw, bw Search
					fw.Start(g, false, seeds, color, c, fwBits, ar, cand)
					bw.Start(g, true, seeds, color, c, bwBits, ar, cand)
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

					if v := firstBitDiff(fwBits, wantFW, n); v >= 0 {
						t.Fatalf("%s: node %d forward-visited=%v, want %v", where, v,
							Visited(fwBits, graph.NodeID(v)), Visited(wantFW, graph.NodeID(v)))
					}
					if v := firstBitDiff(bwBits, wantBW, n); v >= 0 {
						t.Fatalf("%s: node %d backward-visited=%v, want %v", where, v,
							Visited(bwBits, graph.NodeID(v)), Visited(wantBW, graph.NodeID(v)))
					}
					if fwRes.Claimed != wantFWRes.Claimed || bwRes.Claimed != wantBWRes.Claimed {
						t.Fatalf("%s: searches claimed %d and %d nodes, want %d and %d",
							where, fwRes.Claimed, bwRes.Claimed, wantFWRes.Claimed, wantBWRes.Claimed)
					}
					for v := range color {
						if color[v] != wantColor[v] {
							t.Fatalf("%s: node %d color %d, want it untouched (%d)", where, v, color[v], wantColor[v])
						}
					}
				}
			}
		}
	}
}
