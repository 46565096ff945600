package core

import (
	"testing"

	"repro/graph"
	"repro/internal/scratch"
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
