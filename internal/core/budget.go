package core

import (
	"fmt"
	"strings"
	"time"
)

// BudgetError reports that a run cannot fit its memory limit
// (PerRun.MemoryLimit) even in its most degraded configuration. No
// work was started.
type BudgetError struct {
	// Limit is the configured budget in bytes.
	Limit int64
	// Need is the estimated worst-case footprint of the cheapest
	// configuration.
	Need int64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: memory budget %d B below minimum footprint %d B", e.Limit, e.Need)
}

// StallError reports the watchdog aborting a run that made no kernel
// progress for the configured window.
type StallError struct {
	// Phase is the phase that was executing at detection.
	Phase Phase
	// Window is the no-progress window that expired.
	Window time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("core: run stalled in %s: no progress for %s", e.Phase, e.Window)
}

// EstimateMemory returns the worst-case scratch + engine footprint, in
// bytes, of running alg on an n-node graph under opt (defaults are
// applied first, so zero-value fields estimate what would actually
// run). "Worst case" means degree skew lands every survivor on a
// single worker's list and every retained buffer grows to its cap, so
// the real footprint is usually far lower; the estimate's job is to
// be a monotone, configuration-sensitive upper bound the degradation
// ladder can walk down.
func EstimateMemory(n int, alg Algorithm, opt Options) int64 {
	opt = opt.withDefaults(alg)
	nn := int64(n)
	const nodeB = 4 // graph.NodeID is 4 bytes

	// Engine state: color + comp (int32 each), allocated regardless of
	// configuration.
	est := nn * 8
	// Trim: candidates plus the two ping-pong survivor buffers.
	est += nn * 3 * nodeB
	// Phase-1 BFS: the frontier queue plus per-worker next lists. Each
	// worker's list can, in the worst skew, hold nearly the whole next
	// frontier, and list capacity is retained once grown.
	est += nn * nodeB * (1 + int64(opt.Workers))
	// Task backing array shared by all phase-2 node lists.
	est += nn * nodeB
	// Phase-2 per-worker DFS stacks + recycled task buffers: bounded by
	// the alive nodes each worker can be holding.
	est += nn * nodeB
	if alg == Method2 {
		// Par-WCC label array.
		est += nn * 4
	}
	if opt.Kernels != KernelsLegacy {
		// Counter-peeling trim state: in/out degree counters, claimed
		// colors (int32 each) and the candidacy marks (1 byte).
		est += nn * (3*4 + 1)
	}
	// Two-level queue: per-worker local queues are bounded at 2K tasks
	// (task = 32 B: color + slice header + parent).
	est += int64(opt.Workers) * int64(opt.K) * 2 * 32
	return est
}

// applyBudget walks the degradation ladder until the estimated
// footprint fits limit bytes: halve the workers down to 1, then cap
// the task batch at K=1. It returns the (possibly degraded) options
// and a human-readable note of the steps taken, or a *BudgetError
// when even the floor configuration does not fit. A limit <= 0 means
// no budget.
func applyBudget(n int, alg Algorithm, opt Options, limit int64) (Options, string, error) {
	if limit <= 0 {
		return opt, "", nil
	}
	var steps []string
	for EstimateMemory(n, alg, opt) > limit && opt.Workers > 1 {
		opt.Workers /= 2
		steps = append(steps, fmt.Sprintf("workers=%d", opt.Workers))
	}
	if EstimateMemory(n, alg, opt) > limit && opt.K > 1 {
		opt.K = 1
		steps = append(steps, "k=1")
	}
	if need := EstimateMemory(n, alg, opt); need > limit {
		return opt, "", &BudgetError{Limit: limit, Need: need}
	}
	return opt, strings.Join(steps, ","), nil
}
