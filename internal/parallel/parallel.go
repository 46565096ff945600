// Package parallel provides the small data-parallel runtime the SCC
// engine is built on: parallel-for loops with static or dynamic
// (chunk-self-scheduling) work distribution, mirroring the OpenMP
// `parallel for schedule(static|dynamic)` constructs the paper uses.
//
// The paper (§4.3) observes that scale-free degree distributions make
// static distribution unbalanced for any loop that explores neighbor
// lists, so such loops must use dynamic scheduling; loops with uniform
// per-iteration cost use static scheduling to avoid the atomic fetch
// overhead.
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

// For runs body(i) for every i in [0, n) using static range
// partitioning across the given number of workers. workers <= 0 selects
// DefaultWorkers. It returns once every iteration has completed.
func For(workers, n int, body func(i int)) {
	ForRange(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange runs body(lo, hi) on contiguous index ranges that partition
// [0, n) statically across workers. It is the cheapest schedule: one
// goroutine per worker, no shared counters.
func ForRange(workers, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		body(0, n)
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	// Distribute remainder one extra element to the first `rem` workers
	// so ranges differ in size by at most one.
	base, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		sz := base
		if w < rem {
			sz++
		}
		hi := lo + sz
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					box.capture(w, v)
				}
			}()
			body(lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	box.rethrow()
}

// ForDynamic runs body(i) for every i in [0, n) using dynamic
// chunk-self-scheduling: workers repeatedly claim chunks of `chunk`
// iterations from a shared atomic counter. Use it for loops whose
// per-iteration cost is skewed (neighbor exploration on scale-free
// graphs). chunk <= 0 selects a default of 256.
func ForDynamic(workers, n, chunk int, body func(i int)) {
	ForDynamicRange(workers, n, chunk, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForDynamicRange is ForDynamic with the body receiving whole chunks.
func ForDynamicRange(workers, n, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 256
	}
	workers = clampWorkers(workers, (n+chunk-1)/chunk)
	if workers == 1 {
		body(0, n)
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
				body(lo, hi)
			}
		}(w)
	}
	wg.Wait()
	box.rethrow()
}

// ForRangeWorker is ForRange where the body also receives the worker
// index, for per-worker scratch state.
func ForRangeWorker(workers, n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers = clampWorkers(workers, n)
	if workers == 1 {
		body(0, 0, n)
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	base, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		sz := base
		if w < rem {
			sz++
		}
		hi := lo + sz
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					box.capture(w, v)
				}
			}()
			body(w, lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	box.rethrow()
}

// ForDynamicWorker is ForDynamicRange where the body also receives the
// worker index, for per-worker scratch state (e.g. private frontiers).
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
