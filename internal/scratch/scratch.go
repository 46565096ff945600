// Package scratch provides the per-run scratch arena the SCC engine's
// hot paths draw their working memory from. The parallel kernels
// (trim fixpoints, level-synchronous BFS, Par-WCC) and the recursive
// phase's tasks all need short-lived buffers — frontiers, survivor
// lists, per-worker counters, task node-lists — every barrier round;
// allocating them fresh each round is exactly the per-round fixed cost
// the paper warns dominates small partitions. An Arena owns those
// buffers for the lifetime of one Detect call and hands them back out
// on the next round, driving steady-state allocations on the kernel
// hot paths to zero.
//
// # Lifetime and ownership rules
//
// The arena is created by the engine and closed (releasing its worker
// gang) when its owner is done with it: at the end of the run for the
// one-shot path, at Engine.Close for a persistent engine, which keeps
// one arena across runs so the retained buffers act as a high-water
// pool (Shrink sheds them when a memory budget demands it). Within a
// run:
//
//   - Node buffers obtained with GetNodes are caller-owned until
//     returned with PutNodes. Kernels return their survivor lists as
//     arena-owned buffers: the caller (the engine) owns the returned
//     slice and must PutNodes it once it stops using it.
//   - Per-worker list sets (GetLists/PutLists), counter matrices
//     (ClaimMatrix), counts, flags and the label array are retained
//     singletons: each Get hands out the same storage, so a
//     kernel must release/stop using them before the next kernel
//     invocation on the same arena. Kernels run one at a time within a
//     run, which makes this safe by construction.
//   - ResultRow alternates between two retained rows, so one kernel
//     result's Claimed counts stay valid across the next kernel call
//     (phase 1 reads the backward sweep's counts after both sweeps).
//   - Worker(w) state — DFS stack and the node-buffer pool behind
//     phase-2 task recycling — must only be touched by worker w while
//     a parallel section runs. Buffers may be freed into a different
//     worker's pool than they were taken from (a task's list travels
//     with the task), which is safe because each pool is only ever
//     accessed by its own worker; GatherWorkerPools returns them to
//     worker 0 between runs.
//   - Nothing is zeroed on reuse except what the arena's accessors
//     document: list sets and counter rows come back length-reset or
//     zeroed; Label comes back dirty and the caller
//     reinitializes exactly the entries it reads.
//
// Every accessor is nil-safe: a nil *Arena allocates fresh memory, so
// kernels keep working (and tests stay simple) without an arena — they
// just lose the reuse.
package scratch

import (
	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/worklist"
)

// Arena owns one run's reusable scratch memory. Accessors other than
// Worker must be called from the run's coordinating goroutine; Worker
// hands out per-worker state for use inside parallel sections.
type Arena struct {
	workers int
	gang    *parallel.Gang
	ctr     *metrics.Counters

	free    [][]graph.NodeID   // node-buffer pool
	lists   [][][]graph.NodeID // pool of per-worker list sets
	claims  [][]int64          // per-worker counter matrix (retained)
	rows    [2][]int64         // alternating result rows
	rowFlip int
	counts  []int64
	flags   []bool
	label   []int32
	backing []graph.NodeID // task node-list backing array
	perW    []Worker

	// Counter-peeling trim state (see Peel). peelI32 backs the three
	// int32 arrays (deg-in, deg-out, orig) and comes back dirty; marks
	// must be left all-zero by the previous holder.
	peelI32  []int32
	marks    []uint8
	frontier worklist.Frontier[graph.NodeID]

	inj *chaos.Injector
}

// New creates an arena for a run with the given worker count,
// recording reuse into ctr (which may be nil). workers must be >= 1.
// A persistent worker gang is spawned for workers > 1; Close releases
// it.
func New(workers int, ctr *metrics.Counters) *Arena {
	if workers < 1 {
		workers = 1
	}
	a := &Arena{workers: workers, ctr: ctr, perW: make([]Worker, workers)}
	for w := range a.perW {
		a.perW[w].ctr = ctr
	}
	if workers > 1 {
		a.gang = parallel.NewGang(workers)
	}
	return a
}

// Close releases the arena's worker gang. The arena must not be used
// afterwards. Safe on a nil arena and idempotent.
func (a *Arena) Close() {
	if a == nil || a.gang == nil {
		return
	}
	a.gang.Close()
	a.gang = nil
}

// Gang returns the arena's persistent worker gang, or nil for a
// single-worker (or nil) arena. The engine uses it to drive the
// phase-2 work queue on the pinned workers instead of spawning fresh
// goroutines per run.
func (a *Arena) Gang() *parallel.Gang {
	if a == nil {
		return nil
	}
	return a.gang
}

// Shrink drops every retained buffer — pools, singletons, peel state,
// per-worker stacks and free lists — while keeping the worker gang, so
// a persistent engine can shed a high-water footprint that no longer
// fits a memory budget. The next run re-grows buffers to its own
// graph's size. Must not be called while a kernel holds arena memory.
// Nil-safe.
func (a *Arena) Shrink() {
	if a == nil {
		return
	}
	a.free = nil
	a.lists = nil
	a.claims = nil
	a.rows = [2][]int64{}
	a.counts = nil
	a.flags = nil
	a.label = nil
	a.backing = nil
	a.peelI32 = nil
	a.marks = nil
	a.frontier.Init(nil, nil, nil)
	for w := range a.perW {
		a.perW[w].Stack = nil
		a.perW[w].free = nil
		a.perW[w].own = 0
	}
}

// RetainedBytes reports the capacity, in bytes, of the buffers the
// arena currently retains — the high-water scratch footprint a
// persistent engine holds between runs. The frontier's swap buffers
// are excluded: between runs they have been recycled into the node
// pool and would double-count. Nil-safe (0).
func (a *Arena) RetainedBytes() int64 {
	if a == nil {
		return 0
	}
	const nodeB = 4
	var b int64
	for _, buf := range a.free {
		b += int64(cap(buf)) * nodeB
	}
	for _, set := range a.lists {
		for _, buf := range set {
			b += int64(cap(buf)) * nodeB
		}
	}
	for _, row := range a.claims {
		b += int64(cap(row)) * 8
	}
	b += int64(cap(a.rows[0])+cap(a.rows[1])) * 8
	b += int64(cap(a.counts)) * 8
	b += int64(cap(a.flags))
	b += int64(cap(a.label)) * 4
	b += int64(cap(a.backing)) * nodeB
	b += int64(cap(a.peelI32))*4 + int64(cap(a.marks))
	for w := range a.perW {
		b += int64(cap(a.perW[w].Stack)) * nodeB
		for _, buf := range a.perW[w].free {
			b += int64(cap(buf)) * nodeB
		}
	}
	return b
}

// Counters returns the arena's metrics counters (nil for a nil arena
// or a counterless one).
func (a *Arena) Counters() *metrics.Counters {
	if a == nil {
		return nil
	}
	return a.ctr
}

// SetChaos attaches a chaos injector whose Hit calls the kernels will
// fire at their named sites. Nil-safe; a nil injector (the default)
// keeps the kernels on their zero-cost fast path.
func (a *Arena) SetChaos(inj *chaos.Injector) {
	if a != nil {
		a.inj = inj
	}
}

// Chaos returns the attached chaos injector, nil when none (including
// on a nil arena) — and a nil *chaos.Injector's methods are themselves
// nil-safe, so kernels call a.Chaos().Hit(site) unconditionally.
func (a *Arena) Chaos() *chaos.Injector {
	if a == nil {
		return nil
	}
	return a.inj
}

// Abort force-releases a dispatcher wedged on the arena's gang
// barrier; see parallel.Gang.Abort. The arena must not be used for
// further parallel sections afterwards. Nil-safe.
func (a *Arena) Abort() {
	if a == nil {
		return
	}
	a.gang.Abort()
}

// ForDynamic runs body over [0, n) in chunks with dynamic
// self-scheduling, using the arena's persistent gang when available
// and falling back to parallel.ForDynamicWorker otherwise.
func (a *Arena) ForDynamic(workers, n, chunk int, body func(worker, lo, hi int)) {
	if a != nil && a.gang != nil && a.workers == workers {
		a.gang.ForDynamic(n, chunk, body)
		return
	}
	parallel.ForDynamicWorker(workers, n, chunk, body)
}

// GetNodes returns an empty node buffer with at least capHint
// capacity when the pool can supply one, recording the reuse.
func (a *Arena) GetNodes(capHint int) []graph.NodeID {
	if a == nil || len(a.free) == 0 {
		if capHint < 8 {
			capHint = 8
		}
		return make([]graph.NodeID, 0, capHint)
	}
	buf := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.ctr.AddReuse(int64(cap(buf)) * 4)
	return buf[:0]
}

// PutNodes returns a buffer to the pool. No-op on a nil arena or nil
// buffer.
func (a *Arena) PutNodes(buf []graph.NodeID) {
	if a == nil || buf == nil {
		return
	}
	a.free = append(a.free, buf)
}

// GetLists returns a per-worker set of empty node buffers (length
// workers). Sets come from a pool; their inner buffers retain their
// grown capacity.
func (a *Arena) GetLists(workers int) [][]graph.NodeID {
	if a == nil || len(a.lists) == 0 {
		return make([][]graph.NodeID, workers)
	}
	set := a.lists[len(a.lists)-1]
	a.lists = a.lists[:len(a.lists)-1]
	var reused int64
	if cap(set) >= workers {
		set = set[:workers] // recovers inner buffers within capacity
	}
	for len(set) < workers {
		set = append(set, nil)
	}
	set = set[:workers]
	for i := range set {
		reused += int64(cap(set[i])) * 4
		set[i] = set[i][:0]
	}
	if reused > 0 {
		a.ctr.AddReuse(reused)
	}
	return set
}

// PutLists returns a per-worker list set to the pool.
func (a *Arena) PutLists(set [][]graph.NodeID) {
	if a == nil || set == nil {
		return
	}
	a.lists = append(a.lists, set)
}

// ClaimMatrix returns the retained per-worker counter matrix shaped
// [workers][k], zeroed. Only one kernel may hold it at a time.
func (a *Arena) ClaimMatrix(workers, k int) [][]int64 {
	if a == nil {
		m := make([][]int64, workers)
		for w := range m {
			m[w] = make([]int64, k)
		}
		return m
	}
	if cap(a.claims) < workers {
		a.claims = append(a.claims[:cap(a.claims)], make([][]int64, workers-cap(a.claims))...)
	}
	a.claims = a.claims[:workers]
	for w := range a.claims {
		if cap(a.claims[w]) < k {
			a.claims[w] = make([]int64, k)
		}
		a.claims[w] = a.claims[w][:k]
		for i := range a.claims[w] {
			a.claims[w][i] = 0
		}
	}
	return a.claims
}

// ResultRow returns a zeroed k-length row for a kernel result,
// alternating between two retained rows so the previous kernel's
// result row stays readable across one further kernel call.
func (a *Arena) ResultRow(k int) []int64 {
	if a == nil {
		return make([]int64, k)
	}
	a.rowFlip ^= 1
	row := a.rows[a.rowFlip]
	if cap(row) < k {
		row = make([]int64, k)
	}
	row = row[:k]
	for i := range row {
		row[i] = 0
	}
	a.rows[a.rowFlip] = row
	return row
}

// Counts returns the retained per-worker int64 counter slice (length
// workers), zeroed.
func (a *Arena) Counts(workers int) []int64 {
	if a == nil {
		return make([]int64, workers)
	}
	if cap(a.counts) < workers {
		a.counts = make([]int64, workers)
	}
	a.counts = a.counts[:workers]
	for i := range a.counts {
		a.counts[i] = 0
	}
	return a.counts
}

// Flags returns the retained per-worker bool slice (length workers),
// cleared.
func (a *Arena) Flags(workers int) []bool {
	if a == nil {
		return make([]bool, workers)
	}
	if cap(a.flags) < workers {
		a.flags = make([]bool, workers)
	}
	a.flags = a.flags[:workers]
	for i := range a.flags {
		a.flags[i] = false
	}
	return a.flags
}

// Label returns the retained n-length int32 array used by Par-WCC.
// Contents are NOT zeroed; the caller initializes the entries it uses.
func (a *Arena) Label(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	if cap(a.label) < n {
		a.label = make([]int32, n)
	}
	return a.label[:n]
}

// TaskBacking returns the retained n-length backing array that the
// engine partitions into phase-2 task node-lists. It is distinct from
// every pool buffer, so the alive lists the kernels produced remain
// valid while tasks are built on top of it.
func (a *Arena) TaskBacking(n int) []graph.NodeID {
	if a == nil {
		return make([]graph.NodeID, n)
	}
	if cap(a.backing) < n {
		a.backing = make([]graph.NodeID, n)
	}
	return a.backing[:n]
}

// PeelScratch is the counter-peeling trim kernel's retained per-node
// state: the alive in/out degree counters, the pre-removal color of
// claimed nodes, and the candidacy marks.
type PeelScratch struct {
	// DegIn and DegOut are the alive same-color degree counters. NOT
	// zeroed on reuse; the kernel initializes the candidate entries.
	DegIn, DegOut []int32
	// Orig records a claimed node's pre-removal color so the drain
	// loop knows which neighbors shared it. NOT zeroed on reuse.
	Orig []int32
	// Marks flags the kernel's candidate nodes. Contract: all-zero
	// between invocations — the kernel clears exactly the entries it
	// set before returning, so reuse needs no O(n) wipe.
	Marks []uint8
}

// Peel returns the retained counter-peeling state sized for n nodes.
// Only one kernel may hold it at a time. The three int32 arrays share
// one backing allocation — they are always sized together, and one
// malloc instead of three keeps the arena-construction overhead of
// the worklist kernels off the per-Detect allocation budget.
func (a *Arena) Peel(n int) PeelScratch {
	if a == nil {
		backing := make([]int32, 3*n)
		return PeelScratch{
			DegIn:  backing[:n:n],
			DegOut: backing[n : 2*n : 2*n],
			Orig:   backing[2*n : 3*n : 3*n],
			Marks:  make([]uint8, n),
		}
	}
	if cap(a.peelI32) < 3*n {
		a.peelI32 = make([]int32, 3*n)
		a.marks = make([]uint8, n)
	}
	c := cap(a.peelI32) / 3
	backing := a.peelI32[:3*c]
	return PeelScratch{
		DegIn:  backing[:n:c],
		DegOut: backing[c : c+n : 2*c],
		Orig:   backing[2*c : 2*c+n : 3*c],
		Marks:  a.marks[:n],
	}
}

// Frontier returns the retained wave-synchronous worklist the
// counter-peeling kernels drive their waves through. It lives inside
// the (heap-resident) arena by design: the kernels hand its pointer
// into gang closures, which would force a stack-allocated frontier to
// escape every invocation. State is fully overwritten by
// Frontier.Init; only one kernel may hold it at a time.
func (a *Arena) Frontier() *worklist.Frontier[graph.NodeID] {
	if a == nil {
		return new(worklist.Frontier[graph.NodeID])
	}
	return &a.frontier
}

// Worker returns worker w's scratch state. Only worker w may use it
// while a parallel section runs. A nil arena yields a fresh,
// unpooled Worker.
func (a *Arena) Worker(w int) *Worker {
	if a == nil {
		return &Worker{}
	}
	return &a.perW[w]
}

// GatherWorkerPools hands node buffers back to worker 0's pool. The
// engine draws every root-task node list from worker 0's pool, while
// phase 2 frees each consumed list into the pool of whichever worker
// finished the task; left alone, worker 0's pool drains and the others
// grow on every run of a persistent engine. Each other worker keeps as
// many buffers as it has allocated itself: the reserve its tasks draw
// on before they free anything, which would otherwise be allocated
// afresh on every run. Coordinator only, between parallel sections.
// Nil-safe.
func (a *Arena) GatherWorkerPools() {
	if a == nil {
		return
	}
	w0 := &a.perW[0]
	for w := 1; w < len(a.perW); w++ {
		ws := &a.perW[w]
		extra := ws.free[min(ws.own, len(ws.free)):]
		w0.free = append(w0.free, extra...)
		clear(extra)
		ws.free = ws.free[:len(ws.free)-len(extra)]
	}
}

// Worker is one worker's private scratch: a reusable DFS stack and a
// node-buffer pool for recycling phase-2 task node-lists.
type Worker struct {
	// Stack is the worker's reusable DFS stack; users leave it reset
	// (length 0) but with capacity retained.
	Stack []graph.NodeID

	free [][]graph.NodeID
	// own counts the buffers this worker allocated itself; see
	// Arena.GatherWorkerPools.
	own int
	ctr *metrics.Counters
}

// GetNodes returns an empty node buffer from the worker's pool, or a
// fresh one of capHint capacity.
func (w *Worker) GetNodes(capHint int) []graph.NodeID {
	if len(w.free) == 0 {
		if capHint < 8 {
			capHint = 8
		}
		w.own++
		return make([]graph.NodeID, 0, capHint)
	}
	buf := w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	w.ctr.AddReuse(int64(cap(buf)) * 4)
	return buf[:0]
}

// PutNodes recycles a task node buffer into the worker's pool.
func (w *Worker) PutNodes(buf []graph.NodeID) {
	if buf == nil {
		return
	}
	w.free = append(w.free, buf)
}
