package parallel

import (
	"sync"
	"sync/atomic"
)

// Gang is a persistent pool of worker goroutines for repeated
// barrier-synchronized parallel regions. Spawning goroutines per
// region would be the dominant fixed cost of a kernel that runs dozens
// of barrier rounds on small inputs (§4.3's warning about fixed costs
// on small partitions). A Gang spawns its goroutines once; each
// dispatch is a condvar broadcast plus a condvar join, and allocates
// only the dispatched closure, if the caller builds one per dispatch.
//
// Dispatches must come from a single goroutine at a time (the engines'
// coordinating goroutine).
//
// Failure contract:
//
//   - A panic inside a dispatched body is captured (first panic wins),
//     the remaining workers finish the round, and Run re-raises the
//     captured panic as a *WorkerPanic on the dispatching goroutine.
//     The gang itself stays usable.
//   - Abort releases a Run blocked on a barrier whose workers cannot
//     finish (a wedged round). Run then panics ErrBarrierAbandoned and
//     the gang is permanently dead: workers may still be running and
//     writing to the dispatched body's state, so the gang and any
//     scratch it touched must be discarded, never redispatched.
//   - Close is idempotent and safe to call concurrently with an
//     in-flight dispatch: the current round (if any) runs to
//     completion and its Run returns normally; workers exit once no
//     dispatch is pending. A closed gang must not be dispatched again.
type Gang struct {
	n    int
	mu   sync.Mutex
	work sync.Cond // workers wait here for the next dispatch or close
	done sync.Cond // Run waits here for the barrier (or an abort)

	seq     uint64
	body    func(worker int)
	running int
	aborted bool
	closed  bool

	trap Trap

	// The ForDynamic in flight: its range, chunk and body, and the
	// shared cursor its workers claim chunks from. dynamic is the gang
	// body that drives them, bound once in NewGang, so a dispatch
	// allocates nothing of its own.
	dynN, dynChunk int
	dynBody        func(worker, lo, hi int)
	dynNext        atomic.Int64
	dynamic        func(worker int)
}

// NewGang starts workers goroutines and returns the gang. workers
// must be >= 1. A 1-worker gang still runs Run's bodies on its single
// worker goroutine, which is what lets Abort release a coordinator
// whose one worker is wedged; ForDynamic runs inline instead.
func NewGang(workers int) *Gang {
	if workers < 1 {
		panic("parallel: gang workers must be >= 1")
	}
	g := &Gang{n: workers}
	// The conditions live in the gang itself, not behind pointers:
	// one-shot runs start a gang per run, one worker included, and each
	// separate object would be an allocation of its own.
	g.work.L = &g.mu
	g.done.L = &g.mu
	g.dynamic = g.dynamicWorker
	for w := 0; w < workers; w++ {
		go g.loop(w)
	}
	return g
}

// Workers returns the gang's worker count.
func (g *Gang) Workers() int { return g.n }

func (g *Gang) loop(w int) {
	var seen uint64
	g.mu.Lock()
	for {
		for g.seq == seen && !g.closed {
			g.work.Wait()
		}
		if g.seq == seen {
			// Closed with no pending dispatch. A close that raced an
			// in-flight dispatch is handled above: the new seq is
			// observed first and the round runs to completion.
			g.mu.Unlock()
			return
		}
		seen = g.seq
		body := g.body
		g.mu.Unlock()
		g.call(w, body)
		g.mu.Lock()
		g.running--
		if g.running == 0 {
			g.done.Broadcast()
		}
	}
}

// call runs body on worker w, capturing a panic instead of letting it
// kill the process. The barrier still completes: the deferred recover
// returns control to loop, which decrements running as usual.
func (g *Gang) call(w int, body func(worker int)) {
	defer func() {
		if v := recover(); v != nil {
			g.trap.Capture(w, v)
		}
	}()
	body(w)
}

// Run executes body(worker) once on every worker and returns when all
// have finished. It must not be called concurrently with itself or
// after Close. If a worker panicked, Run re-raises the first captured
// panic as a *WorkerPanic after the barrier completes. If Abort
// released the barrier before all workers finished, Run panics
// ErrBarrierAbandoned and the gang must not be used again.
func (g *Gang) Run(body func(worker int)) {
	g.mu.Lock()
	if g.aborted {
		g.mu.Unlock()
		panic(ErrBarrierAbandoned)
	}
	if g.closed {
		g.mu.Unlock()
		panic("parallel: Run on closed gang")
	}
	g.running = g.n
	g.body = body
	g.seq++
	g.work.Broadcast()
	for g.running > 0 && !g.aborted {
		g.done.Wait()
	}
	abandoned := g.running > 0
	g.body = nil
	g.mu.Unlock()
	if abandoned {
		panic(ErrBarrierAbandoned)
	}
	g.trap.Rethrow()
}

// Abort releases a dispatcher blocked in Run on a barrier that will
// never complete (a wedged worker). Idempotent and callable from any
// goroutine. After Abort the gang is dead: Run panics
// ErrBarrierAbandoned (immediately if no dispatch was in flight), and
// Close remains safe. Abort does not (cannot) stop the wedged worker
// goroutine itself; callers are responsible for unblocking it (e.g.
// context cancellation) or accepting the leak of a truly wedged one.
func (g *Gang) Abort() {
	g.mu.Lock()
	g.aborted = true
	g.closed = true
	g.mu.Unlock()
	g.done.Broadcast()
	g.work.Broadcast()
}

// ForDynamic runs body(worker, lo, hi) over [0, n) with dynamic
// chunk-self-scheduling on the gang's persistent workers: each worker
// repeatedly claims the next chunk of `chunk` iterations from a shared
// counter until [0, n) is exhausted, and the body receives the worker
// index for per-worker scratch state. chunk <= 0 selects 256. A
// one-worker gang and small inputs (n <= chunk) run body(0, 0, n)
// inline on the caller, costing nothing, so callers dispatch every
// round this one way at any worker count; n <= 0 runs nothing. The
// panic contract is Run's. The dispatch itself allocates nothing; a
// body bound once (a method value kept across calls) keeps the whole
// call allocation-free, while a capturing closure built per call
// costs its own allocation.
func (g *Gang) ForDynamic(n, chunk int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 256
	}
	if g.n == 1 || n <= chunk {
		body(0, 0, n)
		return
	}
	g.dynN, g.dynChunk, g.dynBody = n, chunk, body
	g.dynNext.Store(0)
	g.Run(g.dynamic)
	// Every worker has returned, so nothing reads the body any more;
	// dropping it keeps the caller's captures collectable. A Run that
	// panics skips this, as a wedged worker may still hold it.
	g.dynBody = nil
}

// dynamicWorker is ForDynamic's gang body.
func (g *Gang) dynamicWorker(w int) {
	n, chunk, body := g.dynN, g.dynChunk, g.dynBody
	for {
		lo := int(g.dynNext.Add(int64(chunk))) - chunk
		if lo >= n {
			return
		}
		body(w, lo, min(lo+chunk, n))
	}
}

// Close releases the gang's goroutines. Idempotent, and safe to call
// while a dispatch is in flight: the in-flight round runs to
// completion (its Run returns normally) and the workers exit
// afterwards.
func (g *Gang) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.work.Broadcast()
}
