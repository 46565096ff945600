// Package worklist implements the paper's custom two-level work queue
// (§4.3): a global queue shared by all workers plus a private local
// queue per worker. Each worker fetches up to K items at a time from
// the global queue into its local queue; newly generated items go to
// the local queue first and overflow to the global queue in batches of
// K once the local queue reaches 2K. The paper sets K=1 for Baseline
// and Method 1 (parallelism-starved) and K=8 for Method 2.
//
// The queue runs on a caller's parallel.Gang, the thread team the
// paper's process_work_queue runs inside: gang worker w drives queue
// worker w.
//
// The queue also records the statistics the paper reports: the peak
// number of simultaneously ready tasks (its "maximum queue depth" —
// six for Method 1 on Flickr, ~10,000 for Method 2) and the total task
// count.
package worklist

import (
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Queue is a two-level work queue of items of type T, executed by a
// gang of a fixed worker count. Create with New, seed with Seed (or
// push from inside tasks), then call Run.
//
// A panic inside a task does not crash the process: the first panic is
// captured (value + stack), the queue cancels itself so peers stop
// dispatching, and Run re-raises it as a *parallel.WorkerPanic on the
// calling goroutine once all workers have parked. Aborting the gang
// (parallel.Gang.Abort) releases a Run blocked on a wedged task: Run
// panics parallel.ErrBarrierAbandoned, and the gang and the queue must
// not be reused. Cancel the queue alongside the abort so the workers
// that are not wedged stop dispatching.
type Queue[T any] struct {
	k       int
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	global []T
	idle   int
	done   bool

	local [][]T

	ready     atomic.Int64 // items currently queued (global + all locals)
	readyPeak atomic.Int64
	total     atomic.Int64 // items ever enqueued
	executed  atomic.Int64
	canceled  atomic.Bool

	trap parallel.Trap

	// fn is the task body of the Run in flight; body is the gang body
	// that drives it, bound once in New so a Run allocates nothing.
	fn   func(worker int, item T)
	body func(worker int)
}

// New returns a Queue executed by `workers` workers with batch size k.
// workers and k must be ≥ 1.
func New[T any](workers, k int) *Queue[T] {
	if workers < 1 {
		panic("worklist: workers must be >= 1")
	}
	if k < 1 {
		panic("worklist: k must be >= 1")
	}
	q := &Queue[T]{k: k, workers: workers, local: make([][]T, workers)}
	q.body = q.runWorker
	// Local queues are bounded at 2K by the spill rule; preallocating
	// that capacity keeps Push allocation-free in steady state.
	for w := range q.local {
		q.local[w] = make([]T, 0, 2*k)
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Seed pushes items onto the global queue before Run starts. It must
// not be called concurrently with Run.
func (q *Queue[T]) Seed(items []T) {
	q.global = append(q.global, items...)
	q.noteEnqueued(len(items))
}

// Push enqueues an item from inside a task running on the given
// worker. The item lands on the worker's local queue; if the local
// queue reaches 2K, the K oldest items spill to the global queue.
func (q *Queue[T]) Push(worker int, item T) {
	l := append(q.local[worker], item)
	q.noteEnqueued(1)
	if len(l) >= 2*q.k {
		// Spill directly under the global lock: append copies the items
		// into the global queue, so no intermediate spill slice is
		// needed and only the owner touches l afterwards.
		q.mu.Lock()
		q.global = append(q.global, l[:q.k]...)
		q.mu.Unlock()
		n := copy(l, l[q.k:])
		l = l[:n]
		q.cond.Broadcast()
	}
	q.local[worker] = l
}

func (q *Queue[T]) noteEnqueued(n int) {
	q.total.Add(int64(n))
	r := q.ready.Add(int64(n))
	for {
		peak := q.readyPeak.Load()
		if r <= peak || q.readyPeak.CompareAndSwap(peak, r) {
			return
		}
	}
}

// Cancel makes every worker stop dispatching new items: workers finish
// the item they are executing, skip everything still queued, and Run
// returns. Cancel is safe to call from any goroutine, including before
// Run starts (the cancellation is sticky), and is idempotent.
func (q *Queue[T]) Cancel() {
	q.canceled.Store(true)
	q.mu.Lock()
	q.done = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Workers returns the queue's worker count.
func (q *Queue[T]) Workers() int { return q.workers }

// K returns the queue's batch size.
func (q *Queue[T]) K() int { return q.k }

// Run executes fn on queued items on gang g, whose size must be the
// queue's worker count, until the queue drains and every worker is
// idle, or until Cancel is called. fn receives the executing worker's
// index (valid for Push) and the item. Run blocks until completion;
// the Queue can be reused afterwards (stats accumulate). If a task
// panicked, Run re-raises the first captured panic as a
// *parallel.WorkerPanic; if the gang was aborted before its workers
// finished, Run panics parallel.ErrBarrierAbandoned.
func (q *Queue[T]) Run(g *parallel.Gang, fn func(worker int, item T)) {
	if g.Workers() != q.workers {
		panic("worklist: gang size differs from the queue's workers")
	}
	q.mu.Lock()
	q.done = q.canceled.Load() // a pre-Run Cancel sticks
	q.idle = 0
	q.mu.Unlock()
	// The gang's dispatch publishes fn to its workers.
	q.fn = fn
	g.Run(q.body)
	q.trap.Rethrow()
}

// runWorker is the gang body: gang worker w drives queue worker w.
func (q *Queue[T]) runWorker(w int) { q.worker(w, q.fn) }

// Reset returns the queue to its pre-Run state while keeping the
// global and local queues' grown capacity, so a persistent engine can
// reuse one queue across runs without reallocating: pending items are
// dropped, cancellation is cleared, and the statistics start over
// (unlike back-to-back Run calls, which accumulate). It must not be
// called concurrently with Run, nor after an abort released a Run:
// wedged workers may still hold the queue's locals.
func (q *Queue[T]) Reset() {
	q.mu.Lock()
	q.global = q.global[:0]
	q.idle = 0
	q.done = false
	q.mu.Unlock()
	for w := range q.local {
		q.local[w] = q.local[w][:0]
	}
	q.ready.Store(0)
	q.readyPeak.Store(0)
	q.total.Store(0)
	q.executed.Store(0)
	q.canceled.Store(false)
	// The trap needs no reset: Rethrow already cleared it on the Run
	// that captured the panic, and an aborted queue never gets here.
}

// runItem executes one task, capturing a panic instead of crashing:
// the first panic wins the trap and cancels the queue so the other
// workers stop dispatching.
func (q *Queue[T]) runItem(w int, fn func(worker int, item T), item T) {
	defer func() {
		if v := recover(); v != nil {
			q.trap.Capture(w, v)
			q.Cancel()
		}
	}()
	fn(w, item)
}

// Panic returns the first captured task panic, or nil. It is only
// meaningful after Run has returned or been released by an abort.
func (q *Queue[T]) Panic() *parallel.WorkerPanic {
	return q.trap.Panic()
}

func (q *Queue[T]) worker(w int, fn func(worker int, item T)) {
	for {
		// Drain the local queue (LIFO for locality).
		for len(q.local[w]) > 0 {
			if q.canceled.Load() {
				return
			}
			l := q.local[w]
			item := l[len(l)-1]
			q.local[w] = l[:len(l)-1]
			q.ready.Add(-1)
			q.executed.Add(1)
			q.runItem(w, fn, item)
		}
		// Refill from the global queue, or terminate.
		q.mu.Lock()
		for len(q.global) == 0 || q.canceled.Load() {
			if q.done {
				q.mu.Unlock()
				return
			}
			q.idle++
			if q.idle == q.workers {
				q.done = true
				q.mu.Unlock()
				q.cond.Broadcast()
				return
			}
			q.cond.Wait()
			q.idle--
		}
		take := q.k
		if take > len(q.global) {
			take = len(q.global)
		}
		q.local[w] = append(q.local[w], q.global[len(q.global)-take:]...)
		q.global = q.global[:len(q.global)-take]
		q.mu.Unlock()
	}
}

// Stats is a snapshot of queue counters.
type Stats struct {
	// PeakReady is the maximum number of simultaneously queued items —
	// the paper's "maximum queue depth", its measure of available
	// task-level parallelism.
	PeakReady int64
	// Total is the number of items ever enqueued.
	Total int64
	// Executed is the number of items executed so far.
	Executed int64
}

// Stats returns a snapshot of the queue's counters.
func (q *Queue[T]) Stats() Stats {
	return Stats{
		PeakReady: q.readyPeak.Load(),
		Total:     q.total.Load(),
		Executed:  q.executed.Load(),
	}
}
