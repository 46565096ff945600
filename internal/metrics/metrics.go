// Package metrics is the engine's lightweight per-run performance
// counter set. One Counters value is allocated per Detect call; the
// parallel kernels bump it at round granularity (never per node or per
// edge), so the counters cost a handful of atomic adds per barrier
// round — noise next to the barrier itself.
//
// The counters exist to make the paper's fixed-cost story observable:
// how many barrier rounds each kernel ran, how large the BFS frontiers
// were (and how often the sweep flipped to the bitmap representation),
// how much scratch memory was recycled instead of reallocated, and how
// much the phase-2 scheduler moved. A Snapshot of the final values is
// attached to every Result and dumped by cmd/sccbench into
// BENCH_scc.json, which is what CI trends.
//
// All methods are nil-safe: kernels running without an arena (tests,
// external callers) pass a nil *Counters and pay two instructions.
package metrics

import "sync/atomic"

// Counters accumulates one run's performance counters. Safe for
// concurrent use; all fields are updated atomically.
type Counters struct {
	// Trim kernel: fixpoint iterations, nodes removed, size-2 pairs.
	TrimRounds   atomic.Int64
	TrimmedNodes atomic.Int64
	Trim2Pairs   atomic.Int64

	// BFS kernel: level barriers, sum of frontier sizes over all
	// levels, peak single-level frontier, and how many levels ran in
	// the dense bitmap (bottom-up) representation.
	BFSLevels     atomic.Int64
	FrontierNodes atomic.Int64
	FrontierPeak  atomic.Int64
	BitmapLevels  atomic.Int64

	// WCC kernel: label-propagation rounds.
	WCCRounds atomic.Int64

	// Worklist trim kernel (counter peeling): nodes pushed onto the
	// peel frontier and the number of peel waves drained. TrimPushes is
	// bounded by the candidate count — the work-efficiency witness the
	// legacy kernel's TrimRounds×|active| rescans lack.
	TrimPushes atomic.Int64
	PeelDepth  atomic.Int64

	// Union-find WCC kernel: successful hooks, parent-pointer hops
	// walked by find (including path halving), and nodes the full pass
	// skipped because sampling already placed them in the most frequent
	// component (the Afforest shortcut).
	UFUnions     atomic.Int64
	UFFindHops   atomic.Int64
	SampledSkips atomic.Int64

	// Phase-2 scheduler: tasks executed.
	Tasks atomic.Int64

	// Scratch arena: buffer reuses that would otherwise have been
	// fresh allocations, and the capacity (in bytes) those reuses
	// recycled.
	BuffersReused atomic.Int64
	BytesReused   atomic.Int64
}

// AddTrimRound records one trim fixpoint iteration that removed n
// nodes.
func (c *Counters) AddTrimRound(n int64) {
	if c == nil {
		return
	}
	c.TrimRounds.Add(1)
	c.TrimmedNodes.Add(n)
}

// AddTrim2Pairs records pairs size-2 SCCs detected by a Trim2 pass.
func (c *Counters) AddTrim2Pairs(pairs int64) {
	if c == nil {
		return
	}
	c.Trim2Pairs.Add(pairs)
}

// AddBFSLevel records one BFS level barrier with the given frontier
// size; bottomUp marks a level that swept the candidates bottom-up,
// counted in BitmapLevels.
func (c *Counters) AddBFSLevel(frontier int64, bottomUp bool) {
	if c == nil {
		return
	}
	c.BFSLevels.Add(1)
	c.FrontierNodes.Add(frontier)
	if bottomUp {
		c.BitmapLevels.Add(1)
	}
	for {
		peak := c.FrontierPeak.Load()
		if frontier <= peak || c.FrontierPeak.CompareAndSwap(peak, frontier) {
			return
		}
	}
}

// AddWCCRound records one WCC label-propagation round.
func (c *Counters) AddWCCRound() {
	if c == nil {
		return
	}
	c.WCCRounds.Add(1)
}

// AddPeelWave records one drained peel wave of the counter-peeling
// trim kernel that removed n nodes. Waves are the kernel's progress
// heartbeat, replacing the legacy kernel's TrimRounds.
func (c *Counters) AddPeelWave(n int64) {
	if c == nil {
		return
	}
	c.PeelDepth.Add(1)
	c.TrimmedNodes.Add(n)
}

// AddTrimPushes records n nodes pushed onto the peel frontier.
func (c *Counters) AddTrimPushes(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.TrimPushes.Add(n)
}

// AddUFPass folds one union-find pass's per-worker totals into the
// run counters: successful hooks, find hops and sampled skips.
func (c *Counters) AddUFPass(unions, hops, skips int64) {
	if c == nil {
		return
	}
	c.UFUnions.Add(unions)
	c.UFFindHops.Add(hops)
	c.SampledSkips.Add(skips)
}

// AddTask records one executed phase-2 task.
func (c *Counters) AddTask() {
	if c == nil {
		return
	}
	c.Tasks.Add(1)
}

// AddReuse records one scratch-buffer reuse recycling capBytes of
// previously allocated capacity.
func (c *Counters) AddReuse(capBytes int64) {
	if c == nil {
		return
	}
	c.BuffersReused.Add(1)
	c.BytesReused.Add(capBytes)
}

// Reset zeroes every counter so a persistent engine can reuse one
// Counters value across runs (the per-run Snapshot stays per-run).
// It must only be called between runs, with no kernel workers live;
// the stores are atomic only so Reset is race-detector-clean against
// stray readers such as a watchdog that has not observed shutdown yet.
// A nil receiver is a no-op.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.TrimRounds.Store(0)
	c.TrimmedNodes.Store(0)
	c.Trim2Pairs.Store(0)
	c.BFSLevels.Store(0)
	c.FrontierNodes.Store(0)
	c.FrontierPeak.Store(0)
	c.BitmapLevels.Store(0)
	c.WCCRounds.Store(0)
	c.TrimPushes.Store(0)
	c.PeelDepth.Store(0)
	c.UFUnions.Store(0)
	c.UFFindHops.Store(0)
	c.SampledSkips.Store(0)
	c.Tasks.Store(0)
	c.BuffersReused.Store(0)
	c.BytesReused.Store(0)
}

// Progress folds the monotone round-granularity counters into a
// single heartbeat value for the stall watchdog: it changes whenever
// any kernel completes a round, level, or task. Counters that can hold
// still across an entire healthy phase (peaks, reuse totals) are
// excluded. A nil receiver reports 0.
func (c *Counters) Progress() uint64 {
	if c == nil {
		return 0
	}
	return uint64(c.TrimRounds.Load()) +
		uint64(c.TrimmedNodes.Load()) +
		uint64(c.Trim2Pairs.Load()) +
		uint64(c.BFSLevels.Load()) +
		uint64(c.FrontierNodes.Load()) +
		uint64(c.WCCRounds.Load()) +
		uint64(c.TrimPushes.Load()) +
		uint64(c.PeelDepth.Load()) +
		uint64(c.UFUnions.Load()) +
		uint64(c.UFFindHops.Load()) +
		uint64(c.Tasks.Load())
}

// Snapshot is a plain-value copy of the counters, safe to embed in
// results after the run's workers have joined.
type Snapshot struct {
	// TrimRounds is the total number of trim fixpoint iterations
	// across all trim phases; TrimmedNodes the nodes they removed;
	// Trim2Pairs the size-2 SCCs found by Trim2 passes.
	TrimRounds   int64
	TrimmedNodes int64
	Trim2Pairs   int64
	// BFSLevels is the total number of BFS level barriers;
	// FrontierNodes the sum of frontier sizes over all levels;
	// FrontierPeak the largest single-level frontier; BitmapLevels how
	// many levels swept bottom-up.
	BFSLevels     int64
	FrontierNodes int64
	FrontierPeak  int64
	BitmapLevels  int64
	// WCCRounds is the number of WCC barrier rounds: label-propagation
	// rounds under the legacy kernels, the constant union-find pass
	// count under the worklist kernels.
	WCCRounds int64
	// TrimPushes is the number of nodes pushed onto the worklist trim
	// kernel's peel frontier; PeelDepth the number of peel waves
	// drained (0 under the legacy kernels).
	TrimPushes int64
	PeelDepth  int64
	// UFUnions is the union-find WCC kernel's successful hooks;
	// UFFindHops the parent-pointer hops its finds walked; SampledSkips
	// the nodes whose full pass was skipped because sampling already
	// placed them in the most frequent component (0 under the legacy
	// kernels).
	UFUnions     int64
	UFFindHops   int64
	SampledSkips int64
	// Tasks is the number of phase-2 tasks executed.
	Tasks int64
	// BuffersReused counts scratch-buffer reuses that replaced fresh
	// allocations; BytesReused is the capacity they recycled.
	BuffersReused int64
	BytesReused   int64
	// DegradedMode notes the degradation steps a memory budget forced
	// on the run, comma-separated in the order applied (e.g.
	// "workers=2,workers=1,k=1"); "" when none. Stamped by the engine
	// after the counters are snapshotted; it is not itself a counter.
	DegradedMode string
}

// Snapshot returns a plain copy of the current counter values. A nil
// receiver yields a zero Snapshot.
func (c *Counters) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		TrimRounds:    c.TrimRounds.Load(),
		TrimmedNodes:  c.TrimmedNodes.Load(),
		Trim2Pairs:    c.Trim2Pairs.Load(),
		BFSLevels:     c.BFSLevels.Load(),
		FrontierNodes: c.FrontierNodes.Load(),
		FrontierPeak:  c.FrontierPeak.Load(),
		BitmapLevels:  c.BitmapLevels.Load(),
		WCCRounds:     c.WCCRounds.Load(),
		TrimPushes:    c.TrimPushes.Load(),
		PeelDepth:     c.PeelDepth.Load(),
		UFUnions:      c.UFUnions.Load(),
		UFFindHops:    c.UFFindHops.Load(),
		SampledSkips:  c.SampledSkips.Load(),
		Tasks:         c.Tasks.Load(),
		BuffersReused: c.BuffersReused.Load(),
		BytesReused:   c.BytesReused.Load(),
	}
}
