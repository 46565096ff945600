package core

import (
	"cmp"
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
	// A raw panic on the coordinating goroutine (single-worker inline
	// kernel path): wrap it here, where the stack still includes the
	// panic site.
	return &parallel.WorkerPanic{Value: v, Stack: debug.Stack()}
}

// stopped reports whether the run's context has been canceled; the
// run methods bail out at the next phase boundary when it fires.
func (e *engine) stopped() bool { return e.sink.Err() != nil }

// phaseStart stamps subsequent kernel events with phase p and emits
// the PhaseStart boundary event. The phase is also tracked atomically
// for the watchdog's Stalled snapshot.
func (e *engine) phaseStart(p Phase) {
	e.curPhase.Store(int32(p))
	e.sink.SetPhase(int(p))
	e.sink.Emit(events.Event{Type: events.PhaseStart})
}

// phaseEnd emits the PhaseEnd boundary event with the phase's
// cumulative totals.
func (e *engine) phaseEnd(p Phase) {
	st := e.res.Phases[p]
	e.sink.Emit(events.Event{Type: events.PhaseEnd, Round: st.Rounds, Nodes: st.Nodes, SCCs: st.SCCs})
}

// timePhase runs fn and adds its wall time to the given phase.
func (e *engine) timePhase(p Phase, fn func()) {
	t0 := time.Now()
	fn()
	e.res.Phases[p].Time += time.Since(t0)
}

// parTrim runs Par-Trim over the candidates, attributing results to
// phase p, and returns the survivors. The candidates buffer is
// recycled into the arena (trim never pools it itself); the returned
// survivors are a distinct arena-owned buffer.
func (e *engine) parTrim(p Phase, candidates []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	kernel := trim.Peel
	if e.opt.Kernels == KernelsLegacy {
		kernel = trim.Par
	}
	e.timePhase(p, func() {
		res, alive := kernel(e.sink, e.g, e.opt.Workers, e.color, e.comp, candidates, e.ar)
		e.res.Phases[p].Nodes += res.Removed
		e.res.Phases[p].SCCs += res.SCCs
		e.res.Phases[p].Rounds += res.Rounds
		out = alive
	})
	e.ar.PutNodes(candidates)
	return out
}

// runBaseline is Algorithm 3: Par-Trim, then recursive FW-BW from a
// single initial partition.
func (e *engine) runBaseline() {
	e.phaseStart(PhaseParTrim)
	alive := e.parTrim(PhaseParTrim, nil)
	e.phaseEnd(PhaseParTrim)
	if e.stopped() {
		return
	}
	e.phaseStart(PhaseRecurFWBW)
	e.timePhase(PhaseRecurFWBW, func() {
		tasks := e.buildTasks(alive)
		e.ar.PutNodes(alive)
		e.phase2(tasks)
	})
	e.phaseEnd(PhaseRecurFWBW)
}

// runFWBW is the original FW-BW algorithm of Fleischer et al.: the
// recursive phase alone, seeded with the whole graph as one task. Its
// poor behavior on real graphs (every size-1 SCC costs a full task
// with two traversals) is what motivated the Trim step.
func (e *engine) runFWBW() {
	n := e.g.NumNodes()
	// The seed list is a pool buffer, not the retained task backing
	// array, for the same recycling-safety reason as buildTasks.
	all := e.ar.Worker(0).GetNodes(n)
	for i := 0; i < n; i++ {
		all = append(all, graph.NodeID(i))
	}
	e.phaseStart(PhaseRecurFWBW)
	e.timePhase(PhaseRecurFWBW, func() {
		e.taskBuf = append(e.taskBuf[:0], task{c: 0, nodes: all, parent: -1})
		e.phase2(e.taskBuf)
	})
	e.phaseEnd(PhaseRecurFWBW)
}

// runMethod1 is Algorithm 6: Par-Trim, data-parallel FW-BW for the
// giant SCC, Par-Trim again, then the recursive phase.
func (e *engine) runMethod1() {
	e.phaseStart(PhaseParTrim)
	alive := e.parTrim(PhaseParTrim, nil)
	e.phaseEnd(PhaseParTrim)
	if e.stopped() {
		return
	}
	e.phaseStart(PhaseParFWBW)
	e.timePhase(PhaseParFWBW, func() {
		alive = e.parFWBW(alive)
	})
	e.phaseEnd(PhaseParFWBW)
	if e.stopped() {
		return
	}
	e.phaseStart(PhaseParTrimPost)
	alive = e.parTrim(PhaseParTrimPost, alive)
	e.phaseEnd(PhaseParTrimPost)
	if e.stopped() {
		return
	}
	e.phaseStart(PhaseRecurFWBW)
	e.timePhase(PhaseRecurFWBW, func() {
		tasks := e.buildTasks(alive)
		e.ar.PutNodes(alive)
		e.phase2(tasks)
	})
	e.phaseEnd(PhaseRecurFWBW)
}

// runMethod2 is Algorithm 9: Par-Trim, Par-FWBW, Par-Trim′ (Trim,
// Trim2, Trim), Par-WCC, then the recursive phase.
func (e *engine) runMethod2() {
	e.phaseStart(PhaseParTrim)
	alive := e.parTrim(PhaseParTrim, nil)
	e.phaseEnd(PhaseParTrim)
	if e.stopped() {
		return
	}
	e.phaseStart(PhaseParFWBW)
	e.timePhase(PhaseParFWBW, func() {
		alive = e.parFWBW(alive)
	})
	e.phaseEnd(PhaseParFWBW)
	if e.stopped() {
		return
	}
	// Par-Trim′: Trim iteratively, Trim2 once (it is more expensive,
	// §3.4), then Trim iteratively again.
	e.phaseStart(PhaseParTrimPost)
	alive = e.parTrim(PhaseParTrimPost, alive)
	if !e.opt.DisableTrim2 && !e.stopped() {
		e.timePhase(PhaseParTrimPost, func() {
			res, survivors := trim.Par2(e.sink, e.g, e.opt.Workers, e.color, e.comp, alive, e.ar)
			e.res.Phases[PhaseParTrimPost].Nodes += res.Removed
			e.res.Phases[PhaseParTrimPost].SCCs += res.SCCs
			e.res.Phases[PhaseParTrimPost].Rounds += res.Rounds
			e.ar.PutNodes(alive)
			alive = survivors
		})
		alive = e.parTrim(PhaseParTrimPost, alive)
	}
	e.phaseEnd(PhaseParTrimPost)
	if e.stopped() {
		return
	}
	// Par-WCC: one task (color) per weakly connected component.
	e.phaseStart(PhaseParWCC)
	var tasks []task
	e.timePhase(PhaseParWCC, func() {
		tasks = e.wccTasks(alive)
		e.ar.PutNodes(alive)
	})
	e.phaseEnd(PhaseParWCC)
	if e.stopped() {
		return
	}
	e.phaseStart(PhaseRecurFWBW)
	e.timePhase(PhaseRecurFWBW, func() {
		e.phase2(tasks)
	})
	e.phaseEnd(PhaseRecurFWBW)
}

// buildTasks groups the alive nodes by their current color into
// phase-2 tasks — the §4.1 "scan of non-marked nodes to construct the
// initial work items". The nodes are copied into the arena's task
// backing array and sorted by color to find the groups; each group is
// then copied into a buffer from worker 0's pool. Seed lists must be
// pool buffers, never subslices of the retained backing array: phase 2
// recycles consumed lists into the worker pools, and on a persistent
// engine a pooled backing alias would be handed out as a "free" buffer
// while the next run's seeds still live in that same array. Under
// DisableHybrid the node lists are dropped. The task slice itself is
// the engine-retained taskBuf — safe to reuse per run because phase
// 2's queue copies the seeds out.
func (e *engine) buildTasks(alive []graph.NodeID) []task {
	backing := e.ar.TaskBacking(len(alive))
	copy(backing, alive)
	color := e.color
	slices.SortFunc(backing, func(a, b graph.NodeID) int {
		return cmp.Compare(color[a], color[b])
	})
	ws := e.ar.Worker(0)
	tasks := e.taskBuf[:0]
	for i := 0; i < len(backing); {
		c := color[backing[i]]
		j := i + 1
		for j < len(backing) && color[backing[j]] == c {
			j++
		}
		if e.opt.DisableHybrid {
			tasks = append(tasks, task{c: c, parent: -1})
		} else {
			nodes := append(ws.GetNodes(j-i), backing[i:j]...)
			tasks = append(tasks, task{c: c, nodes: nodes, parent: -1})
		}
		i = j
	}
	e.taskBuf = tasks
	return tasks
}

// wccTasks labels weakly connected components among the alive nodes
// (Algorithm 7), recolors each component with a fresh color, and
// returns one task per component. Like buildTasks, the backing array
// is only a sort staging area (here sorted by WCC label) and each
// component's node list is copied into a pool buffer, so phase 2's
// list recycling never pools an alias of the retained backing array.
func (e *engine) wccTasks(alive []graph.NodeID) []task {
	label := e.ar.Label(e.g.NumNodes())
	wccKernel := wcc.RunUF
	if e.opt.Kernels == KernelsLegacy {
		wccKernel = wcc.Run
	}
	res := wccKernel(e.sink, e.g, e.opt.Workers, e.color, alive, label, e.ar)
	e.res.WCCComponents = res.Components
	e.res.WCCRounds = res.Rounds
	e.res.Phases[PhaseParWCC].Rounds += res.Rounds
	if e.stopped() {
		return nil
	}
	backing := e.ar.TaskBacking(len(alive))
	copy(backing, alive)
	slices.SortFunc(backing, func(a, b graph.NodeID) int {
		return cmp.Compare(label[a], label[b])
	})
	ws := e.ar.Worker(0)
	tasks := e.taskBuf[:0]
	for i := 0; i < len(backing); {
		root := label[backing[i]]
		j := i + 1
		for j < len(backing) && label[backing[j]] == root {
			j++
		}
		c := e.newColor()
		for _, v := range backing[i:j] {
			e.color[v] = c
		}
		if e.opt.DisableHybrid {
			tasks = append(tasks, task{c: c, parent: -1})
		} else {
			nodes := append(ws.GetNodes(j-i), backing[i:j]...)
			tasks = append(tasks, task{c: c, nodes: nodes, parent: -1})
		}
		i = j
	}
	e.taskBuf = tasks
	return tasks
}
