package bfs

import (
	"context"
	"slices"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/scratch"
)

// levelLog records each BFS level's frontier size and whether it swept
// bottom-up: the level loop bumps BitmapLevels just before it emits the
// level's event.
type levelLog struct {
	ctr      *metrics.Counters
	swept    int64
	frontier []int
	bottomUp []bool
}

func (l *levelLog) Observe(ev events.Event) {
	if ev.Type != events.BFSLevel {
		return
	}
	swept := l.ctr.BitmapLevels.Load()
	l.frontier = append(l.frontier, ev.Frontier)
	l.bottomUp = append(l.bottomUp, swept > l.swept)
	l.swept = swept
}

// TestDirOptDefaultsReachBitmap is the regression test for a dead or
// misjudged bottom-up path: under the default schedule constants, the
// R-MAT giant's hub level — the first level too large to run inline,
// the hub seed's few thousand neighbors — must sweep bottom-up, in
// both directions, and the traversal must claim what a top-down one
// claims. A rule that counted the frontier's nodes instead of its
// edges kept that level top-down.
func TestDirOptDefaultsReachBitmap(t *testing.T) {
	sg := searchGraphs()[0]
	g, n := sg.g, sg.g.NumNodes()
	color := make([]int32, n)
	for _, reverse := range []bool{false, true} {
		var ctr metrics.Counters
		ar := scratch.New(4, &ctr)
		log := &levelLog{ctr: &ctr}
		visited := newBits(n)
		res := Run(events.NewSink(context.Background(), log), g, reverse, []graph.NodeID{sg.seed},
			color, 0, visited, ar, allNodes(g)...)
		ar.Close()

		hub := slices.IndexFunc(log.frontier, func(f int) bool { return f > inlineFrontier })
		if hub < 0 || !log.bottomUp[hub] {
			t.Fatalf("reverse=%v: levels %v, bottom-up %v: the hub level did not sweep bottom-up",
				reverse, log.frontier, log.bottomUp)
		}
		if snap := ctr.Snapshot(); snap.BitmapLevels > int64(res.Levels) {
			t.Fatalf("reverse=%v: BitmapLevels = %d exceeds total levels %d", reverse, snap.BitmapLevels, res.Levels)
		}

		// Same claimed set as the top-down traversal.
		v2 := newBits(n)
		r2 := Run(nil, g, reverse, []graph.NodeID{sg.seed}, color, 0, v2, newArena(t, 4))
		if res.Claimed != r2.Claimed {
			t.Fatalf("reverse=%v: adaptive claimed %d, top-down claimed %d", reverse, res.Claimed, r2.Claimed)
		}
		if v := firstBitDiff(visited, v2, n); v >= 0 {
			t.Fatalf("reverse=%v: node %d adaptive visited=%v, top-down visited=%v",
				reverse, v, Visited(visited, graph.NodeID(v)), Visited(v2, graph.NodeID(v)))
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
	res := Run(nil, g, false, []graph.NodeID{3}, make([]int32, g.NumNodes()), 0, newBits(g.NumNodes()), ar)
	snap := ctr.Snapshot()
	if snap.BitmapLevels != 0 {
		t.Fatalf("queue-only Run recorded BitmapLevels = %d", snap.BitmapLevels)
	}
	if snap.BFSLevels != int64(res.Levels) {
		t.Fatalf("BFSLevels = %d, want %d", snap.BFSLevels, res.Levels)
	}
}
