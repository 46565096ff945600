// Package parallel provides the small data-parallel runtime the SCC
// engine is built on: a persistent worker Gang whose ForDynamic runs a
// chunk-self-scheduled parallel loop, mirroring the OpenMP `parallel
// for schedule(dynamic)` construct the paper uses, plus the
// first-panic-wins Trap the gang and the phase-2 work queue share.
//
// The paper (§4.3) runs its data-parallel loops and its work queue on
// one thread team; here that team is the Gang the scratch arena pins
// for a run, one worker included, and every parallel section of the
// engine dispatches on it.
//
// The paper also observes that scale-free degree distributions make
// static distribution unbalanced for any loop that explores neighbor
// lists, so the kernels schedule dynamically and pick the chunk per
// loop: small for neighbor exploration, large for loops with uniform
// per-iteration cost.
package parallel

import "runtime"

// DefaultWorkers returns the default worker count: GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }
