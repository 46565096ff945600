package scc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/obf"
	"repro/internal/seq"
	"repro/internal/verify"
)

// Engine is a reusable detection runtime for a request stream: New
// validates the Options once and pins the worker gang, scratch arena
// and work queue for the engine's lifetime, and Detect reuses all of
// it, so a warm engine's steady-state run performs zero allocations
// for graphs at or below its high-water node count. Use an Engine when
// detection runs repeatedly (a serving path, a benchmark sweep); use
// the one-shot Detect/DetectContext functions — thin wrappers over a
// throwaway Engine — when it runs once.
//
// Concurrency: an Engine serves one run at a time. A Detect or
// DetectBatch that arrives while another is in flight fails fast with
// an error wrapping ErrEngineBusy (callers that want queueing hold
// their own mutex). Close waits for the in-flight run, then releases
// the worker gang; afterwards every call fails with ErrEngineClosed.
//
// Result ownership: the *Result returned by Detect is engine-owned and
// valid only until the next Detect/DetectBatch/Close on this engine —
// copy what must outlive it. (Results from the one-shot wrappers keep
// their documented forever-valid semantics, since their engine is
// discarded.) DetectBatch results are caller-owned.
type Engine struct {
	mu     sync.Mutex
	opts   Options
	core   *core.Engine // nil for sequential algorithms until DetectBatch pins a gang
	res    Result       // reused result storage, rewritten per run
	closed bool
}

// New validates opts once and returns an Engine configured with them.
// Validation here is the single site for both the engine and one-shot
// paths: an invalid field fails with an *OptionError (wrapping
// ErrInvalidOption) before any resource is pinned. For the parallel
// algorithms (Baseline, Method1, Method2, FWBW) the worker gang and
// scratch arena are created immediately; sequential algorithms pin a
// gang only if DetectBatch needs one. Close releases the resources.
//
// The Options fields Observer, MemoryLimit and Chaos act as
// engine-level defaults that per-run RunOptions (WithObserver,
// WithMemoryLimit, WithChaos) override without copying Options.
func New(opts Options) (*Engine, error) {
	e, err := newEngine(opts)
	if err != nil {
		return nil, detectErr("new", err)
	}
	return e, nil
}

// newEngine is New without the error envelope, so DetectContext can
// wrap validation failures with its historical Op ("detect").
func newEngine(opts Options) (*Engine, error) {
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	e := &Engine{opts: opts}
	switch opts.Algorithm {
	case Baseline, Method1, Method2, FWBW:
		e.core = core.NewEngine(coreAlgorithm(opts.Algorithm), coreOptions(opts))
	}
	return e, nil
}

// Close releases the engine's pinned resources (the worker gang's
// goroutines join before it returns — an engine leaks nothing). It
// waits for an in-flight run to finish first. Idempotent; always nil.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	if e.core != nil {
		e.core.Close()
	}
	return nil
}

// Detect decomposes g on the engine's pinned runtime. Semantics match
// DetectContext — cooperative cancellation, typed errors, the same
// algorithm set — with per-run knobs supplied as RunOptions instead of
// Options copies. It fails fast with ErrEngineBusy if another run is
// in flight and ErrEngineClosed after Close (or after a watchdog
// force-abort destroyed the gang, which closes the engine). The
// returned Result is engine-owned and valid until the next call.
func (e *Engine) Detect(ctx context.Context, g *graph.Graph, runOpts ...RunOption) (*Result, error) {
	if !e.mu.TryLock() {
		return nil, detectErr("detect", ErrEngineBusy)
	}
	defer e.mu.Unlock()
	if e.closed {
		return nil, detectErr("detect", ErrEngineClosed)
	}
	return e.detectLocked(ctx, g, runOpts)
}

func (e *Engine) detectLocked(ctx context.Context, g *graph.Graph, runOpts []RunOption) (*Result, error) {
	if g == nil {
		return nil, detectErr("detect", ErrNilGraph)
	}
	// This run's settings start from the engine-level defaults, which
	// New validated; RunOptions overwrite them. The zero-RunOption fast
	// path must not materialize a heap runConfig: applying options is
	// fenced off so rc stays on the stack when runOpts is empty (the
	// steady-state shape the zero-alloc pin covers).
	opts := e.opts
	rc := runConfig{observer: opts.Observer, memLimit: opts.MemoryLimit, chaos: opts.Chaos}
	if len(runOpts) > 0 {
		rc = applyRunOpts(rc, runOpts)
		if err := rc.validate(); err != nil {
			return nil, detectErr("detect", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr("detect", err)
	}
	switch opts.Algorithm {
	case Tarjan:
		start := time.Now()
		comp, n := seq.Tarjan(g)
		e.res = Result{Comp: comp, NumSCCs: int64(n), Algorithm: Tarjan, Total: time.Since(start)}
	case Kosaraju:
		start := time.Now()
		comp, n := seq.Kosaraju(g)
		e.res = Result{Comp: comp, NumSCCs: int64(n), Algorithm: Kosaraju, Total: time.Since(start)}
	case OBF:
		start := time.Now()
		r := obf.Run(g, obf.Options{Workers: opts.Workers, K: opts.K, Seed: opts.Seed})
		e.res = Result{Comp: r.Comp, NumSCCs: r.NumSCCs, Algorithm: OBF, Total: time.Since(start), Queue: r.Queue}
	case Baseline, Method1, Method2, FWBW:
		pr := core.PerRun{Observer: rc.observer, MemoryLimit: rc.memLimit}
		if rc.chaos != nil {
			// A fresh injector per run: hit ordinals are per-run, so a
			// shared injector would drift across a request stream.
			pr.Chaos = chaos.NewNamed(rc.chaos.PanicAt, rc.chaos.StallAt, rc.chaos.StallFor)
		}
		r, err := e.core.Run(ctx, g, pr)
		if err != nil {
			if e.core.Dead() {
				// The watchdog force-abandoned the gang barriers; the
				// runtime cannot be reused. Fold the engine into the
				// closed state so subsequent calls fail typed.
				e.closed = true
				e.core.Close()
			}
			return nil, engineErr("detect", err)
		}
		fillFromCore(&e.res, opts.Algorithm, r)
	default:
		// Unreachable: validateOptions rejects unknown algorithms.
		return nil, detectErr("detect",
			&OptionError{Field: "Algorithm", Value: opts.Algorithm, Reason: "unknown algorithm"})
	}
	if opts.Validate {
		if err := verify.CheckDecomposition(g, e.res.Comp); err != nil {
			return nil, detectErr("validate", fmt.Errorf("%w: %w", ErrValidation, err))
		}
	}
	return &e.res, nil
}

// BatchResult is one graph's outcome from Engine.DetectBatch.
type BatchResult struct {
	// Comp maps each node to a dense component id in [0, NumSCCs).
	// Unlike Detect's Comp, ids are dense indices rather than
	// representative node ids (batch entries run sequential Tarjan);
	// the partition is identical and SamePartition-comparable.
	Comp []int32
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// Err is the per-graph failure (an error wrapping ErrNilGraph for
	// a nil slice entry); nil for a successful entry.
	Err error
}

// DetectBatch decomposes every graph in the slice on one pinned worker
// gang: graphs are distributed across the engine's workers in
// dynamically claimed chunks of the engine's task batch size K, giving
// cross-graph parallelism — the high-throughput shape for a stream of
// small graphs, where per-graph parallel detection would be all
// barrier overhead. Results are per-graph and caller-owned; a nil
// slice entry yields a per-entry Err wrapping ErrNilGraph rather than
// failing the batch.
//
// Cancellation is cooperative at graph granularity; a canceled batch
// returns the typed cancellation error and discards partial results.
// Busy and closed engines fail exactly like Detect. An engine built
// for a sequential algorithm pins its gang on first DetectBatch.
func (e *Engine) DetectBatch(ctx context.Context, graphs []*graph.Graph) ([]BatchResult, error) {
	if !e.mu.TryLock() {
		return nil, detectErr("batch", ErrEngineBusy)
	}
	defer e.mu.Unlock()
	if e.closed {
		return nil, detectErr("batch", ErrEngineClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr("batch", err)
	}
	if e.core == nil {
		// Sequential-algorithm engine: batch still wants the gang. The
		// core algorithm only shapes defaults (K); batch entries run
		// sequential Tarjan regardless.
		e.core = core.NewEngine(core.Method2, coreOptions(e.opts))
	}
	rs, err := e.core.RunBatch(ctx, graphs)
	if err != nil {
		return nil, engineErr("batch", err)
	}
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		out[i] = BatchResult{Comp: r.Comp, NumSCCs: r.NumSCCs}
		if r.Err != nil {
			if errors.Is(r.Err, core.ErrNilBatchGraph) {
				out[i].Err = detectErr("batch", ErrNilGraph)
			} else {
				out[i].Err = canceledErr("batch", r.Err)
			}
		}
	}
	return out, nil
}

// RunOption is a per-run knob for Engine.Detect. RunOptions override
// the engine-level defaults carried by the corresponding Options
// fields (Observer, MemoryLimit, Chaos) for a single run, without
// copying Options structs; runs without the option fall back to the
// engine default.
type RunOption func(*runConfig)

// runConfig is one run's observer, memory limit and chaos config:
// the engine's Options values with any RunOptions applied.
type runConfig struct {
	observer Observer
	memLimit int64
	chaos    *ChaosConfig
}

// applyRunOpts applies the options to rc. Kept out of detectLocked so
// the config only escapes to the heap on runs that actually pass
// options.
func applyRunOpts(rc runConfig, runOpts []RunOption) runConfig {
	for _, o := range runOpts {
		o(&rc)
	}
	return rc
}

// validate applies option validation to the per-run values — the same
// single-site rules New enforces, with the RunOption name as the
// *OptionError field.
func (rc *runConfig) validate() error {
	if rc.memLimit < 0 {
		return &OptionError{Field: "WithMemoryLimit", Value: rc.memLimit, Reason: "must be >= 0"}
	}
	return rc.chaos.validate()
}

// WithObserver streams this run's progress events to o, overriding the
// engine-level Options.Observer. WithObserver(nil) silences an
// engine-level observer for the run.
func WithObserver(o Observer) RunOption {
	return func(rc *runConfig) { rc.observer = o }
}

// WithMemoryLimit bounds this run's estimated engine + scratch
// footprint in bytes, overriding the engine-level Options.MemoryLimit;
// see that field for the degradation ladder. On a warm engine the
// budget also covers scratch retained from earlier runs: a high-water
// footprint above the limit is shed (and re-grown to this run's size)
// before the run starts. WithMemoryLimit(0) disables the budget for
// the run.
func WithMemoryLimit(bytes int64) RunOption {
	return func(rc *runConfig) { rc.memLimit = bytes }
}

// WithChaos injects deterministic failures into this run's kernels,
// overriding the engine-level Options.Chaos; see ChaosConfig. Hit
// ordinals are counted per run. WithChaos(nil) disables injection for
// the run.
func WithChaos(c *ChaosConfig) RunOption {
	return func(rc *runConfig) { rc.chaos = c }
}

// fillFromCore writes a core result into dst. dst aliases the core
// engine's Comp array — the engine-ownership contract on
// Engine.Detect results exists exactly because of this.
func fillFromCore(dst *Result, a Algorithm, r *core.Result) {
	*dst = Result{
		Comp:          r.Comp,
		NumSCCs:       r.NumSCCs,
		Algorithm:     a,
		Total:         r.Total,
		Phases:        r.Phases,
		Queue:         r.Queue,
		TaskLog:       r.TaskLog,
		TaskTrace:     r.TaskTrace,
		GiantSCC:      r.GiantSCC,
		Phase1Trials:  r.Phase1Trials,
		Phase1Levels:  r.Phase1Levels,
		WCCComponents: r.WCCComponents,
		WCCRounds:     r.WCCRounds,
		InitialTasks:  r.InitialTasks,
		Metrics:       r.Metrics,
	}
}
