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

// task is one phase-2 work item: a partition color and, under the
// hybrid set representation of §4.1, the range [lo, hi) of the run's
// order array (engine.order) that holds the partition's nodes. A task
// owns its range exclusively until it returns; its children own
// disjoint subranges of it, which the queue hands over. With
// Options.DisableHybrid the range goes unread: the partition is
// recovered by scanning the full Color array, the ~10x-slower variant
// the paper measured.
type task struct {
	c, lo, hi int32
	// parent is the TaskTrace index of the spawning task (-1 for
	// seeds); only meaningful under Options.TraceSchedule.
	parent int32
}

// phase2 runs the task-parallel recursive FW-BW phase over the seeded
// work queue (the "until work queue is empty do in parallel" loop of
// Algorithms 3, 6 and 9). The seeds' ranges index e.order, which goes
// back to the arena once the queue has drained.
func (e *engine) phase2(tasks []task) {
	e.res.InitialTasks = len(tasks)
	q := e.pq
	q.Reset()
	q.Seed(tasks)
	// Cooperative cancellation: the queue's dequeue loop is phase 2's
	// round boundary, so a context fire stops dispatch after the
	// in-flight tasks finish and Run unwinds with no leaked workers.
	if ctx := e.sink.Context(); ctx != nil {
		stop := context.AfterFunc(ctx, q.Cancel)
		defer stop()
	}
	e.p2Nodes.Store(0)
	e.p2SCCs.Store(0)
	// The task body is a closure bound once per engine and retained
	// across runs (a per-run closure — and every local it captures —
	// would heap-allocate on each run, since the gang dispatch makes
	// it escape). Its per-run inputs travel through engine fields.
	if e.taskFn == nil {
		e.taskFn = e.runTask
	}
	// The queue runs on the arena's gang at every worker count: one
	// worker included, a task that wedges stays abortable, since the
	// watchdog's gang abort releases this goroutine.
	q.Run(e.ar.Gang(), e.taskFn)
	e.ar.PutNodes(e.order)
	e.order = nil
	e.res.Phases[PhaseRecurFWBW].Nodes += e.p2Nodes.Load()
	e.res.Phases[PhaseRecurFWBW].SCCs += e.p2SCCs.Load()
	e.res.Queue = q.Stats()
}

// runTask is the phase-2 task body the queue runs on the gang. It
// reads its per-run inputs — the queue, chaos injector, trace flags —
// from the engine so the bound e.taskFn closure survives across runs.
func (e *engine) runTask(w int, t task) {
	q := e.pq
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
// The DFSs only count their claims: the task owns e.order[t.lo:t.hi],
// so it splits that range in place (split) and pushes each child the
// subrange holding its nodes. ws is the executing worker's scratch,
// whose DFS stack is reused across tasks; in steady state a task
// allocates nothing.
func (e *engine) recurFWBW(ws *scratch.Worker, t task, q *worklist.Queue[task], worker int) (TaskRecord, bool) {
	c := t.c
	nodes := e.order[t.lo:t.hi]
	if e.opt.DisableHybrid {
		// Ablation path: recover the partition by scanning the whole
		// Color array (§4.1's "very expensive operation") into the DFS
		// stack, which holds the scan until the pivot is drawn.
		nodes = ws.Stack[:0]
		for v := range e.color {
			if atomic.LoadInt32(&e.color[v]) == c {
				nodes = append(nodes, graph.NodeID(v))
			}
		}
		ws.Stack = nodes[:0]
	}
	if len(nodes) == 0 {
		return TaskRecord{}, false
	}
	pivot := nodes[int(e.rand64()%uint64(len(nodes)))]
	size := len(nodes)
	cfw, cbw := e.newColor(), e.newColor()

	// Forward DFS: claim every color-c node reachable from the pivot
	// into cfw. Only this task writes color-c nodes, so plain stores
	// behind atomic loads suffice; stores are atomic so concurrent
	// tasks scanning neighbors read consistent values.
	fw := 0
	stack := append(ws.Stack[:0], pivot)
	atomic.StoreInt32(&e.color[pivot], cfw)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, k := range e.g.Out(v) {
			if atomic.LoadInt32(&e.color[k]) == c {
				atomic.StoreInt32(&e.color[k], cfw)
				fw++
				stack = append(stack, k)
			}
		}
	}

	// Backward DFS: color-c nodes become cbw; cfw nodes are in FW∩BW —
	// the pivot's SCC (Lemma 1) — and are marked removed immediately.
	// Traversal continues through SCC members (Algorithm 5 does not
	// prune at cscc nodes it just claimed).
	bw := 0
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
				bw++
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

	// The forward claims not in the SCC are FW only; what neither DFS
	// claimed is the remainder.
	rec := TaskRecord{SCC: sccSize, FW: fw - (sccSize - 1), BW: bw}
	rec.Remain = size - sccSize - rec.FW - rec.BW
	if !e.opt.DisableHybrid {
		split(e.color, nodes, cfw, cbw)
	}
	lo := t.lo
	for _, ch := range [...]struct {
		c int32
		n int
	}{{cfw, rec.FW}, {cbw, rec.BW}, {c, rec.Remain}} {
		if ch.n > 0 {
			hi := lo + int32(ch.n)
			q.Push(worker, task{c: ch.c, lo: lo, hi: hi, parent: t.parent})
			lo = hi
		}
	}
	return rec, true
}

// split rearranges a finished task's nodes in place: it compacts out
// the SCC's members, now Removed, and splits the rest three ways into
// FW only (cfw), BW only (cbw) and the remainder, in that order, each
// contiguous.
func split(color []int32, nodes []graph.NodeID, cfw, cbw int32) {
	m := 0
	for _, v := range nodes {
		if atomic.LoadInt32(&color[v]) != Removed {
			nodes[m] = v
			m++
		}
	}
	// Three-way partition of nodes[:m]: [0, i) is FW only, [i, j) BW
	// only, [k, m) the remainder, and [j, k) is still to be read.
	i, j, k := 0, 0, m
	for j < k {
		switch atomic.LoadInt32(&color[nodes[j]]) {
		case cfw:
			nodes[i], nodes[j] = nodes[j], nodes[i]
			i++
			j++
		case cbw:
			j++
		default:
			k--
			nodes[j], nodes[k] = nodes[k], nodes[j]
		}
	}
}
