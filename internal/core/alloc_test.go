package core

import (
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bfs"
	"repro/internal/scratch"
	"repro/internal/seq"
	"repro/internal/worklist"
)

// TestRecurFWBWSteadyStateAllocs pins the zero-allocation contract of
// one recycled phase-2 task: with a warmed worker pool, executing a
// task — DFS sweeps, SCC publication, child-partition assembly, the
// pushes onto the work queue — allocates nothing.
func TestRecurFWBWSteadyStateAllocs(t *testing.T) {
	// A 4-cycle SCC with a 2-node tail: the task finds the SCC and
	// assembles a non-empty forward-remainder child, exercising both
	// the recycle path (consumed lists) and the push path (forwarded
	// lists, recycled when the queue runs the child).
	g := graph.FromEdges(6, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0},
		{From: 0, To: 4}, {From: 4, To: 5},
	})
	e := &engine{
		g:     g,
		opt:   Options{Workers: 1},
		color: make([]int32, 6),
		comp:  make([]int32, 6),
		res:   &Result{},
	}
	e.ar = scratch.New(1, nil)
	defer e.ar.Close()
	ws := e.ar.Worker(0)
	q := worklist.New[task](1, 8)
	gang := e.ar.Gang()
	// Running the pushed children recycles their lists straight back
	// into the worker pool, emulating the steady state where every
	// child task is eventually consumed.
	recycle := func(_ int, t task) { ws.PutNodes(t.nodes) }
	run := func() {
		c := e.newColor()
		for v := range e.color {
			e.color[v] = c
			e.comp[v] = -1
		}
		nodes := ws.GetNodes(6)
		for v := 0; v < 6; v++ {
			nodes = append(nodes, graph.NodeID(v))
		}
		e.recurFWBW(ws, task{c: c, nodes: nodes, parent: -1}, q, 0)
		q.Run(gang, recycle)
	}
	run() // warm the worker pool beyond AllocsPerRun's own warmup run
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("recurFWBW allocates %.2f objects/run in steady state, want 0", avg)
	}
}

// phase1Lattice returns a two-worker engine over a road lattice, every
// node alive in partition 0, with the lattice's Tarjan components.
// Every level of the lattice is small, so both searches of a trial run
// to their end inside the opening, side by side.
func phase1Lattice(t *testing.T) (e *engine, alive []graph.NodeID, comp []int32) {
	g := gen.RoadLattice(gen.RoadLatticeConfig{Rows: 64, Cols: 128, TwoWayProb: 0.05, Seed: 3})
	n := g.NumNodes()
	e = &engine{
		g:     g,
		opt:   Options{Workers: 2, GiantThreshold: 0.01, MaxPhase1Trials: 3, PivotSample: 64},
		color: make([]int32, n),
		comp:  make([]int32, n),
		res:   &Result{},
	}
	e.ar = scratch.New(2, nil)
	t.Cleanup(e.ar.Close)
	comp, _ = seq.Tarjan(g)
	alive = make([]graph.NodeID, n)
	for v := range alive {
		alive[v] = graph.NodeID(v)
	}
	return e, alive, comp
}

// TestPhase1OpeningSteadyStateAllocs pins the zero-allocation contract
// of a two-worker phase-1 trial's opening: with a warm arena, the gang
// dispatch of the bound opening body and both searches' small levels,
// run side by side, allocate nothing. The pivot's SCC, FW ∩ BW, must
// be its Tarjan component.
func TestPhase1OpeningSteadyStateAllocs(t *testing.T) {
	e, members, comp := phase1Lattice(t)
	sizes := map[int32]int64{}
	var pivot graph.NodeID
	for v, c := range comp {
		sizes[c]++
		if sizes[c] > sizes[comp[pivot]] {
			pivot = graph.NodeID(v)
		}
	}
	trial := func() {
		e.searchFWBW(pivot, members, 0)
		var size int64
		for _, v := range members {
			if bfs.Visited(e.fwBits, v) && bfs.Visited(e.bwBits, v) {
				size++
			}
		}
		if size != sizes[comp[pivot]] {
			t.Fatalf("SCC size %d, want %d", size, sizes[comp[pivot]])
		}
	}
	trial() // warm the arena's node pool and bitmaps and bind the opening body
	trial()
	if avg := testing.AllocsPerRun(100, trial); avg != 0 {
		t.Fatalf("the phase-1 opening allocates %.2f objects/trial in steady state, want 0", avg)
	}
}

// TestPhase1TrialSteadyStateAllocs pins a whole warm two-worker phase-1
// trial at zero allocations: choosing the partition and pivot, both
// searches, the publication pass on the gang through its bound body,
// and filtering the alive list. The published SCC must be a Tarjan
// component, marked removed with the pivot as its representative.
func TestPhase1TrialSteadyStateAllocs(t *testing.T) {
	e, all, comp := phase1Lattice(t)
	if len(all) <= 4096 {
		t.Fatalf("%d nodes publish in one chunk, inline", len(all))
	}
	alive := make([]graph.NodeID, 0, len(all))
	e.opt.MaxPhase1Trials = 1
	trial := func() {
		clear(e.color)
		e.nextColor.Store(0)
		*e.res = Result{}
		alive = e.parFWBW(append(alive[:0], all...))
		pivot := -1
		for v, c := range e.color {
			if c == Removed {
				pivot = int(e.comp[v])
				if comp[v] != comp[pivot] {
					t.Fatalf("node %d published with pivot %d from another SCC", v, pivot)
				}
			}
		}
		if pivot < 0 || e.res.GiantSCC != int64(len(all)-len(alive)) {
			t.Fatalf("GiantSCC %d, %d of %d nodes left alive", e.res.GiantSCC, len(alive), len(all))
		}
	}
	trial() // warm the arena and bind the opening and publication bodies
	trial()
	if avg := testing.AllocsPerRun(100, trial); avg != 0 {
		t.Fatalf("a phase-1 trial allocates %.2f objects in steady state, want 0", avg)
	}
}
