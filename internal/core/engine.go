package core

import (
	"context"
	"errors"
	"time"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/scratch"
	"repro/internal/watchdog"
	"repro/internal/worklist"
)

// ErrEngineUnusable reports a Run on an Engine whose worker gang was
// destroyed by a watchdog force-abort in an earlier run. The engine
// cannot recover — callers must Close it and build a new one.
var ErrEngineUnusable = errors.New("core: engine unusable after forced barrier abort")

// taskBytes is the in-memory size of a phase-2 task (color + node
// slice header + parent, padded), used by the retained-footprint
// accounting. Kept in sync with the task struct by TestTaskBytes.
const taskBytes = 40

// PerRun carries the settings that may change from one Run to the
// next on the same Engine. scc.Engine resolves them against its
// engine-level defaults before each run; the zero value runs with no
// observer, no memory budget and no failure injection.
type PerRun struct {
	// Observer, if non-nil, receives structured progress events
	// (phase boundaries, trim/BFS/WCC rounds, task completions) as the
	// run executes. It must be safe for concurrent use; see
	// internal/events. A nil observer costs nothing.
	Observer events.Observer
	// MemoryLimit, when > 0, bounds the estimated worst-case engine +
	// scratch footprint in bytes. A configuration over the limit is
	// degraded stepwise (fewer workers, then task batch K=1) before
	// the run starts; if even the floor configuration does not fit,
	// the run fails with a *BudgetError. The applied degradation is
	// recorded in Result.Degraded and Result.Metrics.DegradedMode. The
	// engine's retained scratch counts against the limit too.
	MemoryLimit int64
	// Chaos, if non-nil, injects deterministic failures at the named
	// kernel sites (see internal/chaos) for robustness testing. The
	// injector is bound to the run's context so injected stalls unwind
	// on cancellation or abort. Nil costs nothing.
	Chaos *chaos.Injector
}

// Engine is a persistent detection runtime: the worker gang, scratch
// arena, performance counters, color/comp arrays, phase-2 work queue
// and result storage are created once and reused by every Run, so a
// warm engine's steady-state run allocates nothing for graphs at or
// below its high-water node count. It is the amortization layer behind
// the public scc.Engine; the free Run function wraps a throwaway
// Engine for one-shot use.
//
// An Engine is not safe for concurrent use: the caller serializes Run,
// RunBatch and Close (scc.Engine does this with a mutex). The *Result
// a Run returns is engine-owned and valid only until the next Run.
type Engine struct {
	alg Algorithm
	opt Options // defaulted at construction

	ar  *scratch.Arena
	ctr *metrics.Counters
	// pq is the persistent phase-2 queue. pqWorkers/pqK record its
	// construction shape so runs degraded to a different configuration
	// fall back to a fresh queue.
	pq        *worklist.Queue[task]
	pqWorkers int
	pqK       int

	// run is the per-run mutable state, reset (not reallocated) each
	// Run; res is the reused result it fills in.
	run engine
	res Result

	// color/comp are the engine's high-water node-state arrays,
	// re-sliced and re-initialized per run, reallocated only when a run
	// exceeds their capacity. highN tracks the high-water node count.
	color []int32
	comp  []int32
	highN int

	closed bool
}

// NewEngine creates a persistent engine for alg with construction-time
// defaults applied to opt. The worker gang (for opt.Workers > 1) and
// the phase-2 queue are pinned immediately; scratch buffers grow on
// first use and are retained across runs. Close releases the gang.
func NewEngine(alg Algorithm, opt Options) *Engine {
	opt = opt.withDefaults(alg)
	en := &Engine{alg: alg, opt: opt, ctr: &metrics.Counters{}}
	en.ar = scratch.New(opt.Workers, en.ctr)
	en.pq = worklist.New[task](opt.Workers, opt.K)
	en.pqWorkers, en.pqK = opt.Workers, opt.K
	return en
}

// Close releases the engine's worker gang. The engine (and the last
// Run's Result) must not be used afterwards. Idempotent.
func (en *Engine) Close() {
	if en.closed {
		return
	}
	en.closed = true
	en.ar.Close()
}

// Dead reports whether a watchdog force-abort destroyed the engine's
// barriers; a dead engine fails every subsequent Run with
// ErrEngineUnusable and should be Closed.
func (en *Engine) Dead() bool { return en.run.barriersAborted.Load() }

// retainedBytes is the engine's current cross-run footprint: the
// arena's retained scratch plus the engine-owned high-water arrays.
func (en *Engine) retainedBytes() int64 {
	b := en.ar.RetainedBytes()
	b += int64(cap(en.color)+cap(en.comp)) * 4
	b += int64(cap(en.run.taskBuf)) * taskBytes
	return b
}

// shrink sheds the engine's retained high-water state — arena buffers,
// color/comp arrays, task buffer, partition histogram, queue backing —
// keeping only the worker gang. The next run re-grows everything at
// its own graph's size.
func (en *Engine) shrink() {
	en.ar.Shrink()
	en.color, en.comp = nil, nil
	en.run.taskBuf = nil
	en.run.partCounts = nil
	en.pq = worklist.New[task](en.pqWorkers, en.pqK)
	en.highN = 0
}

// Run executes the engine's algorithm on g under ctx, reusing every
// piece of engine state a previous run grew; pr holds this run's
// observer, memory limit and chaos injector.
//
// Cancellation is cooperative: the engine polls ctx at every phase
// boundary, and the kernels poll it at every barrier-synchronized
// round (trim iterations, BFS levels, WCC rounds, work-queue
// dequeues). A canceled run unwinds cleanly — all worker goroutines
// join before Run returns — and yields (nil, ctx.Err()).
//
// Failure envelope: a panic on any worker (or on the coordinating
// goroutine inside a kernel) is captured and returned as a
// *parallel.WorkerPanic error after the run tears down, never a
// process crash. With Options.StallTimeout a wedged run is aborted
// with a *StallError; with pr.MemoryLimit an over-budget
// configuration is degraded or rejected with a *BudgetError before
// any work starts.
//
// The returned Result is engine-owned: it (including Comp) is valid
// only until the next Run/RunBatch on this engine.
func (en *Engine) Run(ctx context.Context, g *graph.Graph, pr PerRun) (res *Result, err error) {
	if en.Dead() {
		return nil, ErrEngineUnusable
	}
	n := g.NumNodes()
	opt, degraded, err := applyBudget(n, en.alg, en.opt, pr.MemoryLimit)
	if err != nil {
		return nil, err
	}
	// Shrink-on-budget: the high-water state retained from earlier
	// (larger) runs counts against this run's budget too — a budgeted
	// small-graph run after an unbudgeted large one must not keep the
	// large footprint alive.
	if pr.MemoryLimit > 0 && en.retainedBytes() > pr.MemoryLimit {
		en.shrink()
	}

	// The run context separates stall aborts from caller cancellation:
	// the watchdog cancels it with a *StallError cause, and the chaos
	// injector's stalls unwind when it fires. Only materialized when
	// one of those facilities is active, so the default path keeps the
	// caller's context (and the nil-sink fast path) untouched.
	runCtx := ctx
	var cancel context.CancelCauseFunc
	if opt.StallTimeout > 0 || pr.Chaos != nil {
		runCtx, cancel = context.WithCancelCause(ctx)
		defer cancel(nil)
	}

	if cap(en.color) < n {
		en.color = make([]int32, n)
	}
	if cap(en.comp) < n {
		en.comp = make([]int32, n)
	}
	color, comp := en.color[:n], en.comp[:n]
	for i := range color {
		color[i] = 0
	}
	for i := range comp {
		comp[i] = -1
	}
	if n > en.highN {
		en.highN = n
	}

	en.ctr.Reset()
	en.res = Result{Comp: comp, Degraded: degraded}
	pq := en.pq
	if opt.Workers != en.pqWorkers || opt.K != en.pqK {
		pq = nil // degraded shape; phase 2 builds its own queue
	}
	e := &en.run
	e.reset(g, en.alg, opt, color, comp, &en.res, events.NewSink(runCtx, pr.Observer), en.ar, en.ctr, pq)
	e.ar.SetChaos(pr.Chaos)
	// The previous run's phase 2 freed its task lists into the pools of
	// whichever workers finished them; this run draws its root-task
	// lists from worker 0's.
	e.ar.GatherWorkerPools()
	if pr.Chaos != nil {
		pr.Chaos.Bind(runCtx.Done())
	}

	if opt.StallTimeout > 0 {
		// The closure captures branch-local copies, not opt or the
		// outer cancel variable — capturing those would make them (and
		// opt's whole Options value) escape on every Run, including
		// runs with no watchdog at all.
		window, stallCancel := opt.StallTimeout, cancel
		wd := watchdog.Start(runCtx, watchdog.Config{
			Window:   window,
			Progress: e.ctr.Progress,
			OnStall: func() {
				e.sink.EmitPhase(events.Event{Type: events.Stalled,
					Phase: int(e.curPhase.Load()), Round: int(e.ctr.Progress())})
				stallCancel(&StallError{Phase: Phase(e.curPhase.Load()), Window: window})
			},
			OnAbort: e.abortBarriers,
		})
		defer wd.Stop()
	}

	// The recover defer is registered last so it runs first on a
	// panic: the watchdog is still live while the error is classified,
	// then Stop joins it.
	defer func() {
		if v := recover(); v != nil {
			res, err = nil, e.recoverErr(runCtx, v)
		}
	}()

	start := time.Now()
	switch en.alg {
	case Baseline:
		e.runBaseline()
	case Method1:
		e.runMethod1()
	case Method2:
		e.runMethod2()
	case FWBW:
		e.runFWBW()
	default:
		panic("core: unknown algorithm")
	}
	e.res.Total = time.Since(start)
	if e.sink.Err() != nil {
		return nil, teardownErr(runCtx)
	}
	for p := Phase(0); p < NumPhases; p++ {
		e.res.NumSCCs += e.res.Phases[p].SCCs
	}
	e.res.Metrics = e.ctr.Snapshot()
	e.res.Metrics.DegradedMode = degraded
	if e.sink.Active() {
		m := e.res.Metrics
		e.sink.Emit(events.Event{Type: events.RunMetrics,
			BuffersReused: m.BuffersReused, BytesReused: m.BytesReused})
	}
	return e.res, nil
}

// reset rewinds the per-run engine state for a fresh run. Fields are
// reset individually (the struct holds a mutex and atomics, so a
// wholesale copy is off the table); partCounts and taskBuf deliberately
// survive as retained scratch.
func (e *engine) reset(g *graph.Graph, alg Algorithm, opt Options, color, comp []int32,
	res *Result, sink *events.Sink, ar *scratch.Arena, ctr *metrics.Counters, pq *worklist.Queue[task]) {
	e.g = g
	e.opt = opt
	e.alg = alg
	e.color = color
	e.comp = comp
	e.nextColor.Store(0)
	e.res = res
	e.sink = sink
	e.ar = ar
	e.ctr = ctr
	e.pq = pq
	e.taskCount.Store(0)
	e.obsTasks.Store(0)
	e.rngState.Store(uint64(opt.Seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d)
	e.curPhase.Store(0)
	e.setQueue(nil)
}
