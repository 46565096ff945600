// Package scratch provides the per-run scratch arena the SCC engine's
// hot paths draw their working memory from. The parallel kernels
// (trim fixpoints, level-synchronous BFS, Par-WCC) and the recursive
// phase's tasks all need short-lived buffers — frontiers, survivor
// lists, per-worker counters, DFS stacks — every barrier round;
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
//     (ClaimMatrix), counts, flags, the label array and phase 1's two
//     visited bitmaps are retained singletons: each Get hands out the
//     same storage, so a kernel must release/stop using them before
//     the next kernel invocation on the same arena. Kernels run one at
//     a time within a run, which makes this safe by construction.
//     Phase 1's two BFS searches overlap only in their opening, which
//     draws nothing: the coordinator draws both bitmaps and each
//     search's buffers before it, and takes the buffers back as each
//     search finishes.
//   - The per-worker slots of GetLists, ClaimMatrix, Counts and Flags
//     are written once per chunk, never per item. A list set's slice
//     headers sit side by side and the counter rows are small and
//     adjacent, so the workers' slots share cache lines, and a write
//     per item moves that line between the cores on every claim. A
//     chunk body takes the worker's buffer by value, keeps its appends
//     and counts in locals, and stores them once per chunk.
//   - Worker(w) state, the DFS stack of phase 2's tasks, must only be
//     touched by worker w while a parallel section runs. A task's
//     nodes are not worker state: each task owns a range of one node
//     buffer the engine draws for the phase (see internal/core).
//   - Kept dispatch states (Keep) live as long as the arena: each
//     kernel package keeps one, holding the inputs of the round in
//     flight and its gang body, bound once. A kernel fills its state
//     on entry and clears it before it returns, so between kernel
//     calls a kept state holds no arena buffer.
//   - Nothing is zeroed on reuse except what the arena's accessors
//     document: list sets and counter rows come back length-reset or
//     zeroed; Label and Bitmaps come back dirty and the caller
//     reinitializes what it reads.
//
// # The run's worker gang
//
// The arena is also the run's parallel runtime. It always pins a
// parallel.Gang of its worker count, one worker included, and that
// count (Workers) is the only one the kernels read: every parallel
// section of a run — the kernels' loops, phase 1's SCC publication,
// the phase-2 work queue — dispatches on the arena's gang, through
// ForDynamic at every worker count for the kernels' rounds. Every
// kernel therefore takes an arena; there is no arena-less mode.
package scratch

import (
	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// Arena owns one run's reusable scratch memory. Accessors that hand
// out or take back memory must be called from the run's coordinating
// goroutine. Worker hands out per-worker state for use inside parallel
// sections, where the read-only Workers, Counters and Chaos may be
// called too.
type Arena struct {
	workers int
	gang    *parallel.Gang
	ctr     *metrics.Counters

	free   [][]graph.NodeID   // node-buffer pool
	lists  [][][]graph.NodeID // pool of per-worker list sets
	claims [][]int64          // per-worker counter matrix (retained)
	counts []int64
	flags  []bool
	label  []int32
	bits   [2][]uint32 // phase 1's visited bitmaps (see Bitmaps)
	perW   []Worker

	// Support-pointer trim state (see Peel). peelI32 backs the three
	// int32 arrays (support in, support out, orig) and comes back dirty; marks
	// must be left all-zero by the previous holder.
	peelI32 []int32
	marks   []uint8

	kept []any // the kernels' dispatch states (see Keep)

	inj *chaos.Injector
}

// New creates an arena for a run with the given worker count (values
// below 1 select 1) and starts its worker gang, recording reuse into
// ctr, or into counters of the arena's own when ctr is nil. Close
// releases the gang.
func New(workers int, ctr *metrics.Counters) *Arena {
	workers = max(workers, 1)
	if ctr == nil {
		ctr = new(metrics.Counters)
	}
	return &Arena{workers: workers, ctr: ctr, perW: make([]Worker, workers),
		gang: parallel.NewGang(workers)}
}

// Close releases the arena's worker gang. The arena must not be used
// afterwards. Idempotent.
func (a *Arena) Close() { a.gang.Close() }

// Workers returns the arena's worker count: the size of its gang and
// of every per-worker set it hands out.
func (a *Arena) Workers() int { return a.workers }

// Gang returns the arena's persistent worker gang, which the engine's
// phase-2 work queue runs on.
func (a *Arena) Gang() *parallel.Gang { return a.gang }

// Shrink drops every retained buffer — pools, singletons, peel state
// and per-worker stacks — while keeping the worker gang and the kept
// dispatch states, which hold no buffer between kernel calls, so a
// persistent engine can shed a high-water footprint that no longer
// fits a memory budget. The next run re-grows buffers to its own
// graph's size. Must not be called while a kernel holds arena memory.
func (a *Arena) Shrink() {
	a.free = nil
	a.lists = nil
	a.claims = nil
	a.counts = nil
	a.flags = nil
	a.label = nil
	a.bits = [2][]uint32{}
	a.peelI32 = nil
	a.marks = nil
	for w := range a.perW {
		a.perW[w].Stack = nil
	}
}

// RetainedBytes reports the capacity, in bytes, of the buffers the
// arena currently retains — the high-water scratch footprint a
// persistent engine holds between runs.
func (a *Arena) RetainedBytes() int64 {
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
	b += int64(cap(a.counts)) * 8
	b += int64(cap(a.flags))
	b += int64(cap(a.label)) * 4
	b += int64(cap(a.bits[0])+cap(a.bits[1])) * 4
	b += int64(cap(a.peelI32))*4 + int64(cap(a.marks))
	for w := range a.perW {
		b += int64(cap(a.perW[w].Stack)) * nodeB
	}
	return b
}

// Counters returns the arena's metrics counters.
func (a *Arena) Counters() *metrics.Counters { return a.ctr }

// SetChaos attaches a chaos injector whose Hit calls the kernels will
// fire at their named sites; a nil injector (the default) keeps the
// kernels on their zero-cost fast path.
func (a *Arena) SetChaos(inj *chaos.Injector) { a.inj = inj }

// Chaos returns the attached chaos injector, nil when none — and a nil
// *chaos.Injector's methods are themselves nil-safe, so kernels call
// a.Chaos().Hit(site) unconditionally.
func (a *Arena) Chaos() *chaos.Injector { return a.inj }

// Abort force-releases a dispatcher wedged on the arena's gang
// barrier; see parallel.Gang.Abort. The arena must not be used for
// further parallel sections afterwards.
func (a *Arena) Abort() { a.gang.Abort() }

// ForDynamic runs body over [0, n) in chunks with dynamic
// self-scheduling on the arena's gang; see parallel.Gang.ForDynamic.
func (a *Arena) ForDynamic(n, chunk int, body func(worker, lo, hi int)) {
	a.gang.ForDynamic(n, chunk, body)
}

// GetNodes returns an empty node buffer: the most recently pooled one,
// whatever its capacity, recording the reuse, or a fresh one of capHint
// capacity when the pool is empty. A caller that indexes the buffer
// rather than appending to it grows it first.
func (a *Arena) GetNodes(capHint int) []graph.NodeID {
	if len(a.free) == 0 {
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

// PutNodes returns a buffer to the pool. No-op on a nil buffer.
func (a *Arena) PutNodes(buf []graph.NodeID) {
	if buf == nil {
		return
	}
	a.free = append(a.free, buf)
}

// GetLists returns a per-worker set of empty node buffers, one per
// worker. Sets come from a pool; their inner buffers retain their
// grown capacity.
func (a *Arena) GetLists() [][]graph.NodeID {
	if len(a.lists) == 0 {
		return make([][]graph.NodeID, a.workers)
	}
	set := a.lists[len(a.lists)-1]
	a.lists = a.lists[:len(a.lists)-1]
	var reused int64
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
	if set == nil {
		return
	}
	a.lists = append(a.lists, set)
}

// ClaimMatrix returns the retained per-worker counter matrix shaped
// [workers][k], zeroed. Only one kernel may hold it at a time.
func (a *Arena) ClaimMatrix(k int) [][]int64 {
	if a.claims == nil {
		a.claims = make([][]int64, a.workers)
	}
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

// Counts returns the retained per-worker int64 counter slice, one
// per worker, zeroed.
func (a *Arena) Counts() []int64 {
	if a.counts == nil {
		a.counts = make([]int64, a.workers)
	}
	clear(a.counts)
	return a.counts
}

// Flags returns the retained per-worker bool slice, one per worker,
// cleared.
func (a *Arena) Flags() []bool {
	if a.flags == nil {
		a.flags = make([]bool, a.workers)
	}
	clear(a.flags)
	return a.flags
}

// Label returns the retained n-length int32 array used by Par-WCC and
// by the phase-2 task grouping.
// Contents are NOT zeroed; the caller initializes the entries it uses.
func (a *Arena) Label(n int) []int32 {
	if cap(a.label) < n {
		a.label = make([]int32, n)
	}
	return a.label[:n]
}

// Bitmaps returns the two retained visited bitmaps phase 1's forward
// and backward searches claim into, each with one bit for every one of
// n nodes, in (n+31)/32 words. Contents are NOT zeroed: the caller
// clears them before a search. Each is a separate allocation, so the
// two searches opening side by side write no shared cache line.
func (a *Arena) Bitmaps(n int) (fw, bw []uint32) {
	words := (n + 31) / 32
	for i := range a.bits {
		if cap(a.bits[i]) < words {
			a.bits[i] = make([]uint32, words)
		}
	}
	return a.bits[0][:words], a.bits[1][:words]
}

// PeelScratch is the support-pointer trim kernel's retained per-node
// state: each candidate's in/out support pointers, the pre-removal
// color of removed nodes, and the candidacy marks.
type PeelScratch struct {
	// SupIn and SupOut are support pointers: the in- and out-neighbor
	// that currently keeps a node from being trimmed. NOT zeroed on
	// reuse; the kernel initializes the candidate entries.
	SupIn, SupOut []int32
	// Orig records a removed node's pre-removal color so the drain
	// loop knows which neighbors shared it. NOT zeroed on reuse.
	Orig []int32
	// Marks flags the kernel's candidate nodes. Contract: all-zero
	// between invocations — the kernel clears exactly the entries it
	// set before returning, so reuse needs no O(n) wipe.
	Marks []uint8
}

// Peel returns the retained support-pointer state sized for n nodes.
// Only one kernel may hold it at a time. The three int32 arrays share
// one backing allocation — they are always sized together, and one
// malloc instead of three keeps the arena-construction overhead of
// the worklist kernels off the per-Detect allocation budget.
func (a *Arena) Peel(n int) PeelScratch {
	if cap(a.peelI32) < 3*n {
		a.peelI32 = make([]int32, 3*n)
		a.marks = make([]uint8, n)
	}
	c := cap(a.peelI32) / 3
	backing := a.peelI32[:3*c]
	return PeelScratch{
		SupIn:  backing[:n:c],
		SupOut: backing[c : c+n : 2*c],
		Orig:   backing[2*c : 2*c+n : 3*c],
		Marks:  a.marks[:n],
	}
}

// Keep returns the arena's kept value of type T, a zero T on first
// use. A kernel package keeps its dispatch state here — the inputs of
// the round in flight and its gang body, bound once as a method value
// — so a dispatch allocates nothing at any worker count; the arena
// holds it as any, since it cannot name the kernels' types. A kept
// value lives as long as the arena and must hold no arena buffer
// between kernel calls, so Shrink and RetainedBytes need not see it.
func Keep[T any](a *Arena) *T {
	for _, v := range a.kept {
		if p, ok := v.(*T); ok {
			return p
		}
	}
	p := new(T)
	a.kept = append(a.kept, p)
	return p
}

// Worker returns worker w's scratch state. Only worker w may use it
// while a parallel section runs.
func (a *Arena) Worker(w int) *Worker { return &a.perW[w] }

// Worker is one worker's private scratch: the reusable DFS stack of
// phase 2's tasks.
type Worker struct {
	// Stack is the worker's reusable DFS stack; users leave it reset
	// (length 0) but with capacity retained.
	Stack []graph.NodeID
}
