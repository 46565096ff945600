package bfs

import (
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/metrics"
	"repro/internal/scratch"
)

// TestDirOptDefaultsReachBitmap is the regression test for a dead
// bottom-up path: under the default schedule constants, a dense
// small-world frontier must actually sweep bottom-up and record
// BitmapLevels > 0. BitmapLevels staying 0 here means the selection
// rule (or the counter wiring behind Result.Metrics.BitmapLevels)
// regressed and phase 1 silently fell back to top-down everywhere.
func TestDirOptDefaultsReachBitmap(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(14, 8, 3))
	n := g.NumNodes()

	var ctr metrics.Counters
	ar := scratch.New(4, &ctr)
	defer ar.Close()
	color := make([]int32, n)
	color[7] = 1
	res := Run(nil, g, false, []graph.NodeID{7}, color,
		[]Transition{{From: 0, To: 1}}, ar, allNodes(g)...)

	snap := ctr.Snapshot()
	if snap.BitmapLevels == 0 {
		t.Fatalf("BitmapLevels = 0 after %d levels (%d claimed): the default schedule never swept bottom-up",
			res.Levels, res.Claimed[0])
	}
	if snap.BitmapLevels > int64(res.Levels) {
		t.Fatalf("BitmapLevels = %d exceeds total levels %d", snap.BitmapLevels, res.Levels)
	}

	// Same claimed set as the top-down traversal.
	c2 := make([]int32, n)
	c2[7] = 1
	r2 := Run(nil, g, false, []graph.NodeID{7}, c2, []Transition{{From: 0, To: 1}}, newArena(t, 4))
	if res.Claimed[0] != r2.Claimed[0] {
		t.Fatalf("adaptive claimed %d, top-down claimed %d", res.Claimed[0], r2.Claimed[0])
	}
	for v := range color {
		if color[v] != c2[v] {
			t.Fatalf("node %d: adaptive color %d, top-down color %d", v, color[v], c2[v])
		}
	}
}

// TestBitmapCounterGatedToDirOpt pins the counter's gate: a traversal
// without candidates is top-down only and must never touch
// BitmapLevels, so a zero in a benchmark report always means "no level
// swept bottom-up" rather than "the counter is broken".
func TestBitmapCounterGatedToDirOpt(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	var ctr metrics.Counters
	ar := scratch.New(2, &ctr)
	color := make([]int32, g.NumNodes())
	color[3] = 1
	res := Run(nil, g, false, []graph.NodeID{3}, color,
		[]Transition{{From: 0, To: 1}}, ar)
	snap := ctr.Snapshot()
	if snap.BitmapLevels != 0 {
		t.Fatalf("queue-only Run recorded BitmapLevels = %d", snap.BitmapLevels)
	}
	if snap.BFSLevels != int64(res.Levels) {
		t.Fatalf("BFSLevels = %d, want %d", snap.BFSLevels, res.Levels)
	}
}
