// Package parallel provides the small data-parallel runtime the SCC
// engine is built on: a persistent worker Gang whose ForDynamic runs a
// chunk-self-scheduled parallel loop, mirroring the OpenMP `parallel
// for schedule(dynamic)` construct the paper uses, plus the panic
// capture both share.
//
// The paper (§4.3) observes that scale-free degree distributions make
// static distribution unbalanced for any loop that explores neighbor
// lists, so the kernels schedule dynamically and pick the chunk per
// loop: small for neighbor exploration, large for loops with uniform
// per-iteration cost. Every kernel dispatches through the scratch
// arena's Gang; ForDynamicWorker, which spawns goroutines per call, is
// the arena's fallback when no gang of the right size exists.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default worker count: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// clampWorkers normalizes a requested worker count.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForDynamicWorker runs body(worker, lo, hi) over [0, n) in chunks
// with dynamic chunk-self-scheduling: each of workers fresh goroutines
// repeatedly claims the next chunk of `chunk` iterations from a shared
// atomic counter, and the body receives the worker index for
// per-worker scratch state. workers <= 0 selects DefaultWorkers and
// chunk <= 0 a default of 256. The first panic on any worker is
// re-raised on the caller as a *WorkerPanic once every worker has
// returned.
func ForDynamicWorker(workers, n, chunk int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 256
	}
	workers = clampWorkers(workers, (n+chunk-1)/chunk)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	var box panicBox
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					box.capture(w, v)
				}
			}()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
	box.rethrow()
}
