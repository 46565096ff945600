package core

import (
	"context"
	"errors"
	"runtime/debug"
	"slices"
	"time"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/parallel"
	"repro/internal/trim"
	"repro/internal/wcc"
)

// Run executes the selected algorithm on g on a throwaway Engine and
// returns the SCC decomposition with full instrumentation. It cannot
// be canceled and runs with no observer, memory limit or failure
// injection; an error Engine.Run returns (a captured worker panic, a
// watchdog stall) is re-raised as a panic. Callers that need
// cancellation, per-run settings or engine state amortized across
// runs hold an Engine.
func Run(g *graph.Graph, alg Algorithm, opt Options) *Result {
	en := NewEngine(alg, opt)
	defer en.Close()
	res, err := en.Run(context.Background(), g, PerRun{})
	if err != nil {
		panic(err)
	}
	return res
}

// teardownErr resolves the error a torn-down run should report: the
// run context's cancel cause (a *StallError for watchdog aborts, the
// parent context's error for caller cancellation), falling back to the
// plain context error.
func teardownErr(runCtx context.Context) error {
	if cause := context.Cause(runCtx); cause != nil {
		return cause
	}
	return runCtx.Err()
}

// recoverErr classifies a panic recovered on the coordinating
// goroutine into the run's error. Teardown panics — an abandoned
// barrier, a released chaos stall — carry no information of their own
// and map to the teardown cause (stall or cancellation); everything
// else is (or is wrapped into) a *parallel.WorkerPanic and returned as
// the run's error.
func (e *engine) recoverErr(runCtx context.Context, v any) error {
	unwrapped := v
	if wp, ok := v.(*parallel.WorkerPanic); ok {
		unwrapped = wp.Value
	}
	switch u := unwrapped.(type) {
	case chaos.Released:
		// A stalled worker unwound during teardown.
		if te := teardownErr(runCtx); te != nil {
			return te
		}
		return &parallel.WorkerPanic{Value: u, Stack: debug.Stack()}
	case error:
		if errors.Is(u, parallel.ErrBarrierAbandoned) {
			if te := teardownErr(runCtx); te != nil {
				return te
			}
			return u
		}
	}
	if wp, ok := v.(*parallel.WorkerPanic); ok {
		return wp
	}
	// A raw panic on the coordinating goroutine (a kernel round the
	// gang ran inline): wrap it here, where the stack still includes
	// the panic site.
	return &parallel.WorkerPanic{Value: v, Stack: debug.Stack()}
}

// stopped reports whether the run's context has been canceled; the
// pipeline bails out at the next phase boundary when it fires.
func (e *engine) stopped() bool { return e.sink.Err() != nil }

// phase runs fn as phase p and reports whether the run goes on, false
// once it is canceled. It stamps the kernels' events with p, tracks p
// atomically for the watchdog's Stalled snapshot, brackets fn with the
// PhaseStart and PhaseEnd boundary events, the latter carrying the
// phase's cumulative totals, and adds fn's wall time to the phase.
func (e *engine) phase(p Phase, fn func()) bool {
	e.curPhase.Store(int32(p))
	e.sink.SetPhase(int(p))
	e.sink.Emit(events.Event{Type: events.PhaseStart})
	t0 := time.Now()
	fn()
	st := &e.res.Phases[p]
	st.Time += time.Since(t0)
	e.sink.Emit(events.Event{Type: events.PhaseEnd, Round: st.Rounds, Nodes: st.Nodes, SCCs: st.SCCs})
	return !e.stopped()
}

// detect runs the engine's algorithm. The paper's Algorithms 3, 6 and
// 9 are one pipeline that adds steps, and Fleischer et al.'s FW-BW is
// its last step alone:
//
//   - Baseline (Algorithm 3): Par-Trim, then the recursive phase from
//     the partitions trimming left;
//   - Method 1 (Algorithm 6) adds data-parallel FW-BW for the giant
//     SCC and Par-Trim again before the recursive phase;
//   - Method 2 (Algorithm 9) adds Trim2 and a third Trim to Par-Trim′,
//     and Par-WCC, which seeds the recursive phase with one task per
//     weakly connected component;
//   - FW-BW runs the recursive phase alone, from one task over the
//     whole graph. Its poor behavior on real graphs (every size-1 SCC
//     costs a full task with two traversals) is what motivated the
//     Trim step.
func (e *engine) detect() {
	var alive []graph.NodeID
	var tasks []task
	if e.alg != FWBW && !e.phase(PhaseParTrim, func() { alive = e.parTrim(PhaseParTrim, nil) }) {
		return
	}
	if e.alg == Method1 || e.alg == Method2 {
		if !e.phase(PhaseParFWBW, func() { alive = e.parFWBW(alive) }) {
			return
		}
		// Par-Trim′: Trim iteratively, then for Method 2 Trim2 once
		// (it is more expensive, §3.4) and Trim iteratively again.
		if !e.phase(PhaseParTrimPost, func() {
			alive = e.parTrim(PhaseParTrimPost, alive)
			if e.alg == Method2 && !e.opt.DisableTrim2 && !e.stopped() {
				res, survivors := trim.Par2(e.sink, e.g, e.color, e.comp, alive, e.ar)
				e.addTrim(PhaseParTrimPost, res, alive)
				alive = e.parTrim(PhaseParTrimPost, survivors)
			}
		}) {
			return
		}
	}
	if e.alg == Method2 && !e.phase(PhaseParWCC, func() {
		tasks = e.wccTasks(alive)
		e.ar.PutNodes(alive)
	}) {
		return
	}
	e.phase(PhaseRecurFWBW, func() {
		switch e.alg {
		case Method2: // seeded by Par-WCC
		case Baseline, Method1:
			tasks = e.buildTasks(alive)
			e.ar.PutNodes(alive)
		case FWBW:
			n := e.g.NumNodes()
			order := e.orderArray(n)
			for i := range order {
				order[i] = graph.NodeID(i)
			}
			e.taskBuf = append(e.taskBuf[:0], task{c: 0, lo: 0, hi: int32(n), parent: -1})
			tasks = e.taskBuf
		default:
			panic("core: unknown algorithm")
		}
		e.phase2(tasks)
	})
}

// parTrim runs the selected trim kernel over the candidates (every node
// when nil), attributing its results to phase p, and returns the
// survivors, a distinct arena-owned buffer.
func (e *engine) parTrim(p Phase, candidates []graph.NodeID) []graph.NodeID {
	kernel := trim.Peel
	if e.opt.Kernels == KernelsLegacy {
		kernel = trim.Par
	}
	res, alive := kernel(e.sink, e.g, e.color, e.comp, candidates, e.ar)
	e.addTrim(p, res, candidates)
	return alive
}

// addTrim adds a trim kernel's result to phase p and recycles the
// candidates buffer into the arena (trim never pools it itself).
func (e *engine) addTrim(p Phase, res trim.Result, candidates []graph.NodeID) {
	st := &e.res.Phases[p]
	st.Nodes += res.Removed
	st.SCCs += res.SCCs
	st.Rounds += res.Rounds
	e.ar.PutNodes(candidates)
}

// buildTasks groups the alive nodes by their current color into
// phase-2 tasks — the §4.1 "scan of non-marked nodes to construct the
// initial work items". Each color's first alive node stands as its
// group's root in the arena's label array, which no other phase of
// the algorithms that call buildTasks uses.
func (e *engine) buildTasks(alive []graph.NodeID) []task {
	root := e.ar.Label(e.g.NumNodes())
	first := e.perColor(-1)
	for _, v := range alive {
		c := e.color[v]
		if first[c] < 0 {
			first[c] = int32(v)
		}
		root[v] = first[c]
	}
	return e.groupTasks(alive, root, false)
}

// wccTasks labels weakly connected components among the alive nodes
// (Algorithm 7), recolors each component with a fresh color, and
// returns one task per component.
func (e *engine) wccTasks(alive []graph.NodeID) []task {
	label := e.ar.Label(e.g.NumNodes())
	wccKernel := wcc.RunUF
	if e.opt.Kernels == KernelsLegacy {
		wccKernel = wcc.Run
	}
	res := wccKernel(e.sink, e.g, e.color, alive, label, e.ar)
	e.res.WCCComponents = res.Components
	e.res.WCCRounds = res.Rounds
	e.res.Phases[PhaseParWCC].Rounds += res.Rounds
	if e.stopped() {
		return nil
	}
	return e.groupTasks(alive, label, true)
}

// groupTasks turns the alive nodes into one phase-2 seed task per
// group in three linear passes, without a comparison sort. root[v]
// names v's group by one of its alive members r with root[r] == r, as
// Par-WCC leaves its labels; each root's entry is rewritten in place,
// first to minus its group's size, then to the complement of its
// task's index. Tasks follow their roots' order in alive, and each
// task's range of the order array, placed by the group sizes, holds
// its group's nodes in alive's order; the last pass fills each range
// with its task's hi as the cursor. fresh gives every task a new color
// and recolors its nodes; otherwise a task keeps its root's color. The
// task slice is the engine-retained taskBuf, safe to reuse per run
// because phase 2's queue copies the seeds out.
func (e *engine) groupTasks(alive []graph.NodeID, root []int32, fresh bool) []task {
	groups := 0
	for _, v := range alive {
		switch r := root[v]; {
		case r < 0: // a root another member already counted in
			root[v]--
		case r == int32(v):
			root[v] = -1
			groups++
		case root[r] >= 0: // r is still its own label
			root[r] = -1
			groups++
		default:
			root[r]--
		}
	}
	order := e.orderArray(len(alive))
	tasks := slices.Grow(e.taskBuf[:0], groups)
	var lo int32
	for _, v := range alive {
		size := -root[v]
		if size <= 0 {
			continue
		}
		t := task{c: e.color[v], lo: lo, hi: lo, parent: -1}
		if fresh {
			t.c = e.newColor()
		}
		lo += size
		root[v] = ^int32(len(tasks))
		tasks = append(tasks, t)
	}
	for _, v := range alive {
		i := root[v]
		if i >= 0 {
			i = root[i]
		}
		t := &tasks[^i]
		if fresh {
			e.color[v] = t.c
		}
		order[t.hi] = v
		t.hi++
	}
	e.taskBuf = tasks
	return tasks
}

// orderArray draws the run's phase-2 order array from the arena, n
// nodes long. The arena hands back whatever pooled buffer it holds, so
// the buffer is grown first.
func (e *engine) orderArray(n int) []graph.NodeID {
	e.order = slices.Grow(e.ar.GetNodes(n), n)[:n]
	return e.order
}
