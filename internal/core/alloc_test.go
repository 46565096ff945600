package core

import (
	"context"
	"testing"

	"repro/gen"
	"repro/graph"
	"repro/internal/bfs"
	"repro/internal/scratch"
	"repro/internal/seq"
	"repro/internal/verify"
	"repro/internal/worklist"
)

// TestRecurFWBWSteadyStateAllocs pins the zero-allocation contract of
// one phase-2 task — DFS sweeps, SCC publication, the in-place split of
// its range, the pushes onto the work queue — and checks the split:
// the children's subranges are disjoint and hold exactly the FW-only,
// BW-only and remaining nodes.
func TestRecurFWBWSteadyStateAllocs(t *testing.T) {
	// A 4-cycle SCC {0, 1, 2, 3} with an in-tail 4 → 0, an out-tail
	// 0 → 5 and an isolated node 6: a pivot in the cycle leaves all
	// three children, FW only {5}, BW only {4} and the remainder {6}.
	const n = 7
	edges := []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0},
		{From: 4, To: 0}, {From: 0, To: 5},
	}
	// fwOf[p] and bwOf[p] are the nodes p reaches and is reached from,
	// p included, as bitmasks.
	var fwOf, bwOf [n]uint8
	for p := range n {
		fwOf[p], bwOf[p] = 1<<p, 1<<p
	}
	for range n {
		for _, ed := range edges {
			for p := range n {
				if fwOf[p]&(1<<ed.From) != 0 {
					fwOf[p] |= 1 << ed.To
				}
				if bwOf[p]&(1<<ed.To) != 0 {
					bwOf[p] |= 1 << ed.From
				}
			}
		}
	}
	e := &engine{
		g:     graph.FromEdges(n, edges),
		opt:   Options{Workers: 1},
		color: make([]int32, n),
		comp:  make([]int32, n),
		res:   &Result{},
		order: make([]graph.NodeID, n),
	}
	e.ar = scratch.New(1, nil)
	defer e.ar.Close()
	q := worklist.New[task](1, 8)
	gang := e.ar.Gang()
	// The queue runs the pushed children by recording them.
	var kids [3]task
	nk := 0
	record := func(_ int, t task) { kids[nk] = t; nk++ }
	var c int32
	run := func() {
		c = e.newColor()
		for v := range n {
			e.color[v] = c
			e.comp[v] = -1
			e.order[v] = graph.NodeID(v)
		}
		nk = 0
		e.recurFWBW(e.ar.Worker(0), task{c: c, lo: 0, hi: n, parent: -1}, q, 0)
		q.Run(gang, record)
	}
	three := false
	for i := 0; i < 50; i++ {
		run()
		var scc uint8
		pivot := -1
		for v := range n {
			if e.color[v] == Removed {
				scc |= 1 << v
				pivot = int(e.comp[v])
			}
		}
		if pivot < 0 || scc != fwOf[pivot]&bwOf[pivot] {
			t.Fatalf("run %d: SCC %07b with pivot %d", i, scc, pivot)
		}
		// The task drew FW only's color, then BW only's, after c.
		want := map[int32]uint8{
			c + 1: fwOf[pivot] &^ scc,
			c + 2: bwOf[pivot] &^ scc,
			c:     (1<<n - 1) &^ (fwOf[pivot] | bwOf[pivot]),
		}
		var used, seen uint8
		for _, kid := range kids[:nk] {
			var got uint8
			for p := kid.lo; p < kid.hi; p++ {
				if used&(1<<p) != 0 {
					t.Fatalf("run %d: position %d in two children's ranges %+v", i, p, kids[:nk])
				}
				used |= 1 << p
				got |= 1 << e.order[p]
			}
			if w, ok := want[kid.c]; !ok || got != w || seen&w != 0 || kid.parent != -1 {
				t.Fatalf("run %d (pivot %d): child %+v holds %07b, want %07b", i, pivot, kid, got, w)
			}
			seen |= got
		}
		if seen != (1<<n-1)&^scc {
			t.Fatalf("run %d (pivot %d): children hold %07b, want %07b", i, pivot, seen, (1<<n-1)&^scc)
		}
		three = three || nk == 3
	}
	if !three {
		t.Fatal("no pivot left all three children")
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("recurFWBW allocates %.2f objects/run in steady state, want 0", avg)
	}
}

// tailGraph is an R-MAT core with a tail of 1,024 small components
// attached: after the core's giant SCC, many partitions are left for
// phase 2.
func tailGraph() *graph.Graph {
	core := gen.RMAT(gen.DefaultRMAT(12, 8, 9))
	return gen.WithTail(core, gen.TailConfig{
		Components: 1024, Alpha: 2.0, MaxSize: 32, AttachEdges: 2, ChainProb: 0.6, Seed: 9,
	})
}

// TestPhase2SteadyStateAllocs pins the zero-allocation contract of a
// warm two-worker phase 2: grouping the alive nodes into seed tasks and
// running them on the gang, the two workers handing ranges of the
// order array to each other through the queue, allocates nothing. The
// alive nodes are those outside the giant SCC, one partition per weakly
// connected component among them, as Par-WCC leaves them; every SCC
// must come out as Tarjan's.
func TestPhase2SteadyStateAllocs(t *testing.T) {
	g := tailGraph()
	n := g.NumNodes()
	en := NewEngine(Method2, Options{Workers: 2, Seed: 3})
	defer en.Close()
	if _, err := en.Run(context.Background(), g, PerRun{}); err != nil {
		t.Fatal(err)
	}
	e := &en.run
	tc, _ := seq.Tarjan(g)
	sizes := map[int32]int{}
	giant := tc[0]
	for _, c := range tc {
		sizes[c]++
		if sizes[c] > sizes[giant] {
			giant = c
		}
	}
	// The giant is published, with its first node as representative;
	// the others start in one partition per weakly connected component,
	// numbered from 1.
	color0 := make([]int32, n)
	comp0 := make([]int32, n)
	rep := int32(-1)
	var alive []graph.NodeID
	for v := range n {
		comp0[v] = -1
		if tc[v] == giant {
			if rep < 0 {
				rep = int32(v)
			}
			color0[v], comp0[v] = Removed, rep
		}
	}
	colors := int32(0)
	var stack []graph.NodeID
	for s := range n {
		if color0[s] != 0 {
			continue
		}
		colors++
		color0[s] = colors
		for stack = append(stack[:0], graph.NodeID(s)); len(stack) > 0; {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			alive = append(alive, v)
			for _, nb := range [2][]graph.NodeID{g.Out(v), g.In(v)} {
				for _, k := range nb {
					if color0[k] == 0 {
						color0[k] = colors
						stack = append(stack, k)
					}
				}
			}
		}
	}
	if colors < 1000 {
		t.Fatalf("%d seed partitions, want at least 1,000", colors)
	}
	run := func() {
		copy(e.color, color0)
		copy(e.comp, comp0)
		e.nextColor.Store(colors)
		e.phase2(e.buildTasks(alive))
	}
	for i := 0; i < 3; i++ {
		run()
		if e.res.InitialTasks != int(colors) {
			t.Fatalf("%d seed tasks, want %d", e.res.InitialTasks, colors)
		}
		if !verify.SamePartition(e.comp, tc) {
			t.Fatal("phase 2's components differ from Tarjan's")
		}
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("a two-worker phase 2 allocates %.2f objects/run in steady state, want 0", avg)
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
