package core

import (
	"context"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/scratch"
	"repro/internal/worklist"
)

// task is one phase-2 work item: a partition color plus, under the
// hybrid set representation of §4.1, the explicit list of the
// partition's nodes. With Options.DisableHybrid the list is nil and
// the partition is recovered by scanning the full Color array — the
// ~10x-slower variant the paper measured.
type task struct {
	c     int32
	nodes []graph.NodeID
	// parent is the TaskTrace index of the spawning task (-1 for
	// seeds); only meaningful under Options.TraceSchedule.
	parent int32
}

// phase2 runs the task-parallel recursive FW-BW phase over the seeded
// work queue (the "until work queue is empty do in parallel" loop of
// Algorithms 3, 6 and 9).
func (e *engine) phase2(tasks []task) {
	e.res.InitialTasks = len(tasks)
	// The persistent queue (e.pq, set by Engine runs whose shape
	// matches) is reset and reused; otherwise a fresh queue is built
	// for this run.
	q := e.pq
	if q != nil {
		q.Reset()
	} else {
		q = worklist.New[task](e.opt.Workers, e.opt.K)
	}
	q.Seed(tasks)
	// Cooperative cancellation: the queue's dequeue loop is phase 2's
	// round boundary, so a context fire stops dispatch after the
	// in-flight tasks finish and Run unwinds with no leaked workers.
	if ctx := e.sink.Context(); ctx != nil {
		stop := context.AfterFunc(ctx, q.Cancel)
		defer stop()
	}
	// Publish the queue so the watchdog can abandon a Run wedged on a
	// task that never finishes.
	e.setQueue(q)
	defer e.setQueue(nil)
	// The task body is a closure bound once per engine and retained
	// across runs (a per-run closure — and every local it captures —
	// would heap-allocate on each run, since the goroutine-dispatch
	// vehicles make it escape). Its per-run inputs travel through
	// engine fields instead: runQ is read by workers only after the
	// queue's start synchronizes with this write.
	e.runQ = q
	defer func() { e.runQ = nil }()
	e.p2Nodes.Store(0)
	e.p2SCCs.Store(0)
	if e.taskFn == nil {
		e.taskFn = e.runTask
	}
	fn := e.taskFn
	// Dispatch. The queue has three execution vehicles: inline on this
	// goroutine (single worker, no watchdog to force an abort — the
	// zero-allocation steady-state path), on the arena's pinned gang
	// (matching multi-worker runs; the watchdog's force-abort reaches
	// it through Arena.Abort), or on freshly spawned goroutines
	// (shape-mismatched fallback, and the only vehicle Abandon alone
	// can release, which the single-worker watchdog path needs).
	gang := e.ar.Gang()
	switch {
	case e.opt.Workers == 1 && e.opt.StallTimeout == 0:
		q.RunSerial(fn)
	case gang != nil && gang.Workers() == e.opt.Workers:
		q.RunOn(gang, fn)
	default:
		q.Run(fn)
	}
	e.res.Phases[PhaseRecurFWBW].Nodes += e.p2Nodes.Load()
	e.res.Phases[PhaseRecurFWBW].SCCs += e.p2SCCs.Load()
	e.res.Queue = q.Stats()
}

// runTask is the phase-2 task body dispatched by every execution
// vehicle (inline, gang, spawned goroutines). It reads its
// per-run inputs — the dispatch queue, chaos injector, trace flags —
// from the engine so the bound e.taskFn closure survives across runs.
func (e *engine) runTask(w int, t task) {
	q := e.runQ
	e.ar.Chaos().Hit(chaos.SiteTask)
	e.ctr.AddTask()
	trace := e.opt.TraceSchedule
	var id int32
	var t0 time.Time
	if trace {
		e.logMu.Lock()
		id = int32(len(e.res.TaskTrace))
		e.res.TaskTrace = append(e.res.TaskTrace, TaskTrace{Parent: t.parent})
		e.logMu.Unlock()
		t.parent = id // children hang off this execution
		t0 = time.Now()
	}
	rec, ok := e.recurFWBW(e.ar.Worker(w), t, q, w)
	if trace {
		d := time.Since(t0)
		e.logMu.Lock()
		e.res.TaskTrace[id].Duration = d
		e.logMu.Unlock()
	}
	if !ok {
		return
	}
	e.p2Nodes.Add(int64(rec.SCC))
	e.p2SCCs.Add(1)
	if e.sink.Active() {
		e.sink.Emit(events.Event{Type: events.TaskDone, Nodes: int64(rec.SCC)})
		// Periodic queue-depth samples (every 64th task) expose the
		// paper's task-level-parallelism measure live.
		if e.obsTasks.Add(1)%64 == 0 {
			st := q.Stats()
			e.sink.Emit(events.Event{Type: events.QueueSample,
				Queued: st.Total - st.Executed, Executed: st.Executed})
		}
	}
	if e.opt.TraceTasks > 0 && e.taskCount.Add(1) <= int64(e.opt.TraceTasks) {
		e.logMu.Lock()
		e.res.TaskLog = append(e.res.TaskLog, rec)
		e.logMu.Unlock()
	}
}

// recurFWBW executes one task: Algorithm 5. It finds the SCC of a
// pivot via sequential forward and backward DFS (§4.2: plain DFS beats
// parallel BFS on the small partitions of phase 2), publishes it, and
// pushes the three residual partitions. Returns the task record and
// whether a pivot existed.
//
// ws is the executing worker's scratch: the DFS stack is reused across
// tasks, the FW/BW child lists are drawn from the worker's buffer
// pool, and every node list a task consumes without forwarding to a
// child is recycled into that pool — in steady state a task allocates
// nothing. A list may be recycled by a different worker than the one
// that drew it (it travels with the task), which is safe because each
// pool is only touched by its own worker.
func (e *engine) recurFWBW(ws *scratch.Worker, t task, q *worklist.Queue[task], worker int) (TaskRecord, bool) {
	nodes := t.nodes
	scanned := false
	if nodes == nil {
		// Ablation path: recover the partition by scanning the whole
		// Color array (§4.1's "very expensive operation").
		nodes = ws.GetNodes(64)
		scanned = true
		for v := 0; v < e.g.NumNodes(); v++ {
			if atomic.LoadInt32(&e.color[v]) == t.c {
				nodes = append(nodes, graph.NodeID(v))
			}
		}
	}
	if len(nodes) == 0 {
		if scanned {
			ws.PutNodes(nodes)
		}
		return TaskRecord{}, false
	}
	c := t.c
	pivot := nodes[int(e.rand64()%uint64(len(nodes)))]
	cfw, cbw := e.newColor(), e.newColor()

	// Forward DFS: claim every color-c node reachable from the pivot
	// into cfw. Only this task writes color-c nodes, so plain stores
	// behind atomic loads suffice; stores are atomic so concurrent
	// tasks scanning neighbors read consistent values.
	fwList := ws.GetNodes(16)
	stack := append(ws.Stack[:0], pivot)
	atomic.StoreInt32(&e.color[pivot], cfw)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range e.g.Out(v) {
			if atomic.LoadInt32(&e.color[k]) == c {
				atomic.StoreInt32(&e.color[k], cfw)
				fwList = append(fwList, k)
				stack = append(stack, k)
			}
		}
	}

	// Backward DFS: color-c nodes become cbw; cfw nodes are in FW∩BW —
	// the pivot's SCC (Lemma 1) — and are marked removed immediately.
	// Traversal continues through SCC members (Algorithm 5 does not
	// prune at cscc nodes it just claimed).
	bwList := ws.GetNodes(16)
	sccSize := 1
	e.comp[pivot] = int32(pivot)
	atomic.StoreInt32(&e.color[pivot], Removed)
	stack = append(stack[:0], pivot)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range e.g.In(v) {
			switch atomic.LoadInt32(&e.color[k]) {
			case c:
				atomic.StoreInt32(&e.color[k], cbw)
				bwList = append(bwList, k)
				stack = append(stack, k)
			case cfw:
				e.comp[k] = int32(pivot)
				atomic.StoreInt32(&e.color[k], Removed)
				sccSize++
				stack = append(stack, k)
			}
		}
	}
	ws.Stack = stack[:0]

	// Assemble the three residual partitions and push them. Under the
	// hybrid representation each child task inherits an exact node
	// list; fwList is filtered in place (SCC members left it), and the
	// parent's list filtered for still-color-c nodes is the remainder.
	fwRemain := fwList[:0]
	for _, v := range fwList {
		if atomic.LoadInt32(&e.color[v]) == cfw {
			fwRemain = append(fwRemain, v)
		}
	}
	var remain []graph.NodeID
	if t.nodes != nil {
		remain = t.nodes[:0]
		for _, v := range t.nodes {
			if atomic.LoadInt32(&e.color[v]) == c {
				remain = append(remain, v)
			}
		}
	}
	rec := TaskRecord{SCC: sccSize, FW: len(fwRemain), BW: len(bwList), Remain: len(nodes) - sccSize - len(fwRemain) - len(bwList)}

	if e.opt.DisableHybrid {
		if len(fwRemain) > 0 {
			q.Push(worker, task{c: cfw, parent: t.parent})
		}
		if len(bwList) > 0 {
			q.Push(worker, task{c: cbw, parent: t.parent})
		}
		if rec.Remain > 0 {
			q.Push(worker, task{c: c, parent: t.parent})
		}
		ws.PutNodes(fwList)
		ws.PutNodes(bwList)
		if scanned {
			ws.PutNodes(nodes)
		}
	} else {
		if len(fwRemain) > 0 {
			q.Push(worker, task{c: cfw, nodes: fwRemain, parent: t.parent})
		} else {
			ws.PutNodes(fwList)
		}
		if len(bwList) > 0 {
			q.Push(worker, task{c: cbw, nodes: bwList, parent: t.parent})
		} else {
			ws.PutNodes(bwList)
		}
		if len(remain) > 0 {
			q.Push(worker, task{c: c, nodes: remain, parent: t.parent})
		} else if t.nodes != nil {
			ws.PutNodes(t.nodes)
		}
	}
	return rec, true
}
