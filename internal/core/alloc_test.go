package core

import (
	"testing"

	"repro/gen"
	"repro/graph"
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

// TestPhase1OpeningSteadyStateAllocs pins the zero-allocation contract
// of a two-worker phase-1 trial's opening: with a warm arena, the gang
// dispatch of the bound opening body and both searches' small levels,
// run side by side, allocate nothing. Every level of a road lattice is
// small, so both searches run to their end inside the opening.
func TestPhase1OpeningSteadyStateAllocs(t *testing.T) {
	g := gen.RoadLattice(gen.RoadLatticeConfig{Rows: 64, Cols: 64, TwoWayProb: 0.05, Seed: 3})
	n := g.NumNodes()
	e := &engine{
		g:     g,
		opt:   Options{Workers: 2},
		color: make([]int32, n),
		comp:  make([]int32, n),
		res:   &Result{},
	}
	e.ar = scratch.New(2, nil)
	defer e.ar.Close()
	comp, _ := seq.Tarjan(g)
	sizes := map[int32]int64{}
	var pivot graph.NodeID
	members := make([]graph.NodeID, n)
	for v, c := range comp {
		members[v] = graph.NodeID(v)
		sizes[c]++
		if sizes[c] > sizes[comp[pivot]] {
			pivot = graph.NodeID(v)
		}
	}
	const c, cfw, cbw, cscc = 0, 1, 2, 3
	trial := func() {
		clear(e.color)
		e.color[pivot] = cscc
		if _, size := e.searchFWBW(pivot, members, c, cfw, cbw, cscc); size != sizes[comp[pivot]] {
			t.Fatalf("SCC size %d, want %d", size, sizes[comp[pivot]])
		}
	}
	trial() // warm the arena's node pool and bind the opening body
	trial()
	if avg := testing.AllocsPerRun(100, trial); avg != 0 {
		t.Fatalf("the phase-1 opening allocates %.2f objects/trial in steady state, want 0", avg)
	}
}
