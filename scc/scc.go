// Package scc is the public API for strongly-connected-component
// detection, implementing the algorithms of Hong, Rodia & Olukotun,
// "On Fast Parallel Detection of Strongly Connected Components (SCC)
// in Small-World Graphs" (SC '13).
//
// Quick start:
//
//	g := gen.RMAT(gen.DefaultRMAT(20, 16, 42))
//	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
//	defer cancel()
//	res, err := scc.DetectContext(ctx, g, scc.Options{Algorithm: scc.Method2})
//	if err != nil { ... }
//	fmt.Println(res.NumSCCs, res.LargestSCC())
//
// DetectContext is the primary entry point: it honors cancellation
// and deadlines, and streams progress to an optional Observer. Detect
// is a convenience wrapper over context.Background(). Errors are
// typed — match ErrNilGraph, ErrInvalidOption, ErrCanceled with
// errors.Is, and extract the offending field from an *OptionError
// with errors.As.
//
// Five algorithms are available: the sequential baselines Tarjan and
// Kosaraju, and the three parallel algorithms from the paper —
// Baseline (parallel FW-BW-Trim), Method1 (two-phase parallelization
// that peels the giant SCC with data-parallel BFS), and Method2
// (Method1 plus Trim2 and parallel WCC seeding of the work queue).
// Method2 is the right default for small-world graphs; Tarjan wins on
// high-diameter graphs such as road networks (§5 of the paper).
package scc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/graph"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/multistep"
	"repro/internal/obf"
	"repro/internal/parallel"
	"repro/internal/verify"
	"repro/internal/worklist"
)

// Algorithm selects the SCC detection algorithm.
type Algorithm int

const (
	// Method2 (the zero value, and the recommended default) is
	// Algorithm 9 of the paper: Par-Trim, data-parallel FW-BW,
	// Par-Trim′ (Trim/Trim2/Trim), Par-WCC, then task-parallel
	// recursive FW-BW.
	Method2 Algorithm = iota
	// Method1 is Algorithm 6: two-phase parallelization without the
	// Trim2 and WCC steps.
	Method1
	// Baseline is Algorithm 3: parallel Trim plus task-parallel
	// recursive FW-BW (the conventional FW-BW-Trim).
	Baseline
	// Tarjan is the sequential asymptotically optimal algorithm
	// (iterative, explicit stack).
	Tarjan
	// Kosaraju is the sequential two-pass algorithm.
	Kosaraju
	// FWBW is Fleischer et al.'s original parallel FW-BW algorithm
	// with no trimming — the historical baseline FW-BW-Trim improved
	// on. Provided for comparison; expect it to be slow on graphs with
	// many trivial SCCs.
	FWBW
	// OBF is the recursive OWCTY-Backward-Forward algorithm of Barnat
	// et al. ([9] in the paper), the alternative parallel decomposition
	// the related-work section discusses. The paper reports it gives
	// no large improvement on real-world graphs with few big SCCs;
	// it is provided to reproduce that comparison.
	OBF
	// Coloring is Orzan's color-propagation algorithm, the third
	// classic parallel SCC approach and the basis of the MultiStep and
	// iSpan follow-on work. Provided as an extension baseline.
	Coloring
	// MultiStep is Slota, Rathi & Madduri's follow-on to the paper:
	// Trim, one FW-BW step for the giant SCC, color propagation for
	// the mid-size residue, and a sequential-Tarjan finish below a
	// size cutoff.
	MultiStep
	// Gabow is the sequential path-based (two-stack) algorithm — the
	// third classic linear-time method, used as an extra oracle.
	Gabow
)

// String returns the algorithm's name as used in the paper.
func (a Algorithm) String() string {
	switch a {
	case Method2:
		return "Method2"
	case Method1:
		return "Method1"
	case Baseline:
		return "Baseline"
	case Tarjan:
		return "Tarjan"
	case Kosaraju:
		return "Kosaraju"
	case FWBW:
		return "FW-BW"
	case OBF:
		return "OBF"
	case Coloring:
		return "Coloring"
	case MultiStep:
		return "MultiStep"
	case Gabow:
		return "Gabow"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Kernels selects the trim and WCC kernel implementations used by the
// parallel algorithms. Both choices produce identical SCC partitions;
// they differ only in how much work the fixpoints cost. String returns
// the flag spelling ("worklist" or "legacy").
type Kernels = core.Kernels

const (
	// KernelsWorklist (the zero value, and the default) selects the
	// work-efficient active-set kernels: support-pointer trim — each
	// node keeps a pointer to one alive in- and out-neighbor, a removed
	// node moves only the pointers it held, and nodes left unsupported
	// are peeled through a frontier worklist, near-linear total work
	// regardless of chain depth — and union-find WCC (lock-free union by minimum representative
	// with path halving, Afforest-style neighbor sampling, and a full
	// pass that skips the most frequent sampled component).
	KernelsWorklist = core.KernelsWorklist
	// KernelsLegacy selects the paper's round-based fixpoint kernels:
	// Par-Trim (Algorithm 4) rescans every candidate's adjacency each
	// round, and Par-WCC (Algorithm 7) runs min-label propagation
	// rounds. Kept for ablation and as the reference the differential
	// suite compares against.
	KernelsLegacy = core.KernelsLegacy
)

// ParseKernels maps a flag spelling (see Kernels.String) to its
// Kernels value.
func ParseKernels(s string) (Kernels, error) {
	switch s {
	case "worklist":
		return KernelsWorklist, nil
	case "legacy":
		return KernelsLegacy, nil
	}
	return 0, fmt.Errorf("scc: unknown kernels %q (want worklist|legacy)", s)
}

// ParseAlgorithm maps an algorithm name to its Algorithm value. The
// match is case-insensitive and accepts every Algorithm.String
// spelling ("FW-BW" also as "fwbw").
func ParseAlgorithm(s string) (Algorithm, error) {
	name := strings.ToLower(s)
	if name == "fwbw" {
		name = "fw-bw"
	}
	var names []string
	for a := Method2; a <= Gabow; a++ {
		n := strings.ToLower(a.String())
		if name == n {
			return a, nil
		}
		names = append(names, n)
	}
	return 0, fmt.Errorf("scc: unknown algorithm %q (want %s)", s, strings.Join(names, "|"))
}

// Phase identifies one segment of a parallel run's execution
// breakdown (Figure 7 of the paper). String returns the phase label
// used in the paper's Figure 7.
type Phase = core.Phase

const (
	// PhaseParTrim is the initial parallel Trim.
	PhaseParTrim = core.PhaseParTrim
	// PhaseParFWBW is the data-parallel giant-SCC detection.
	PhaseParFWBW = core.PhaseParFWBW
	// PhaseParTrimPost is Par-Trim′ (post-FWBW trimming, including
	// Trim2 for Method2).
	PhaseParTrimPost = core.PhaseParTrimPost
	// PhaseParWCC is parallel weakly-connected-component seeding.
	PhaseParWCC = core.PhaseParWCC
	// PhaseRecurFWBW is the task-parallel recursive FW-BW phase.
	PhaseRecurFWBW = core.PhaseRecurFWBW
	// NumPhases is the number of phases.
	NumPhases = core.NumPhases
)

// Options configures Detect.
type Options struct {
	// Algorithm selects the detection algorithm; the zero value is
	// Method2.
	Algorithm Algorithm
	// Workers is the number of parallel workers; <= 0 selects
	// GOMAXPROCS. Ignored by the sequential algorithms.
	Workers int
	// K is the two-level work queue's batch size (§4.3 of the paper);
	// 0 selects the paper's defaults (1 for Baseline/Method1, 8 for
	// Method2).
	K int
	// GiantThreshold is the node fraction above which a phase-1 SCC
	// counts as giant; 0 selects the paper's 1%.
	GiantThreshold float64
	// MaxPhase1Trials bounds the data-parallel FW-BW trials; 0
	// selects 3.
	MaxPhase1Trials int
	// Seed makes pivot selection reproducible.
	Seed int64
	// Kernels selects the trim and WCC kernel implementations; the
	// zero value is KernelsWorklist (work-efficient support-pointer
	// trim + union-find). KernelsLegacy restores the paper's round-based
	// fixpoints. The partition is identical either way.
	Kernels Kernels
	// DisableTrim2 removes the Trim2 step from Method2 (ablation).
	DisableTrim2 bool
	// DisableHybrid disables the §4.1 hybrid set representation
	// (ablation; expect order-of-magnitude slowdowns on large graphs).
	DisableHybrid bool
	// TraceTasks records the first N recursive-phase task executions
	// in Result.TaskLog, like the §3.3 log.
	TraceTasks int
	// PivotSample is the number of candidates examined when picking a
	// phase-1 pivot (0 = 64; 1 = the paper's uniform-random pivot).
	PivotSample int
	// TraceSchedule records the recursive phase's task DAG in
	// Result.TaskTrace for scheduling simulation.
	TraceSchedule bool
	// Validate re-checks the decomposition against the graph before
	// returning (adds O(n+m) verification time).
	Validate bool
	// Observer, if non-nil, receives structured progress events (phase
	// boundaries, kernel rounds, task completions) during the parallel
	// algorithms' runs; see the Observer type. Sequential algorithms
	// emit no events. A nil Observer costs nothing. On an Engine this
	// is the default that WithObserver overrides for one run.
	Observer Observer
	// StallTimeout, when > 0, arms a per-run watchdog on the parallel
	// algorithms: if no kernel completes a round (trim iteration, BFS
	// level, WCC round, phase-2 task) for this long, the run emits an
	// EventStalled observer event and aborts with an error wrapping
	// ErrStalled. The window must exceed the longest legitimate barrier
	// round. The watchdog also force-aborts a barrier that stays wedged
	// past one window after ctx fires — without it, cancellation is
	// only noticed at round boundaries. 0 disables the watchdog.
	StallTimeout time.Duration
	// MemoryLimit, when > 0, bounds the parallel engine's estimated
	// worst-case scratch + engine footprint in bytes (see
	// EstimateMemory). An over-budget configuration is degraded
	// stepwise before the run starts — fewer workers, then task batch
	// K=1 — and the applied steps are recorded in
	// Result.Metrics.DegradedMode. If even the floor configuration does
	// not fit, detection fails up front with an error wrapping
	// ErrMemoryBudget. 0 disables the budget. On a reusable Engine the
	// budget also bounds scratch retained across runs (the high-water
	// pool is shed before a run that would exceed it). On an Engine
	// this is the default that WithMemoryLimit overrides for one run.
	MemoryLimit int64
	// Chaos, if non-nil, injects deterministic failures into the
	// parallel engine's kernels for robustness testing; see
	// ChaosConfig. Nil costs nothing. On an Engine this is the default
	// that WithChaos overrides for one run; hit ordinals are counted
	// per run either way.
	Chaos *ChaosConfig
}

// PhaseStats is one phase's share of a parallel run: its wall time,
// the nodes and SCCs it identified, and its barrier rounds.
type PhaseStats = core.PhaseStats

// TaskRecord is one recursive-phase task execution in the format of
// the paper's §3.3 log: the size of the SCC the task identified and
// of the three partitions (FW, BW, Remain) it produced.
type TaskRecord = core.TaskRecord

// TaskTrace is one recorded task for the scheduling simulator: the
// index of the spawning task (-1 for seeds) and the task's measured
// sequential duration.
type TaskTrace = core.TaskTrace

// QueueStats reports work-queue behavior for the recursive phase:
// PeakReady is the maximum number of simultaneously queued tasks (the
// paper's "maximum queue depth" measure of available task-level
// parallelism), Total the tasks ever enqueued, Executed the tasks run.
type QueueStats = worklist.Stats

// Result is the outcome of a Detect call.
type Result struct {
	// Comp maps every node to its SCC representative: two nodes are in
	// the same SCC iff their Comp entries are equal. Representatives
	// are node ids, not dense component indices; use Renumber for
	// dense ids.
	Comp []int32
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// Algorithm echoes the algorithm that produced the result.
	Algorithm Algorithm
	// Total is the end-to-end detection wall time.
	Total time.Duration
	// Phases is the per-phase breakdown (parallel algorithms only).
	Phases [NumPhases]PhaseStats
	// Queue is the recursive phase's work-queue statistics.
	Queue QueueStats
	// TaskLog is the first Options.TraceTasks task executions.
	TaskLog []TaskRecord
	// TaskTrace is the recursive phase's task DAG (with
	// Options.TraceSchedule).
	TaskTrace []TaskTrace
	// GiantSCC is the size of the giant SCC peeled in phase 1.
	GiantSCC int64
	// Phase1Trials is the number of data-parallel FW-BW trials.
	Phase1Trials int
	// Phase1Levels is the total BFS levels across phase-1 trials.
	Phase1Levels int
	// WCCComponents is the number of weakly connected components found
	// by Par-WCC (Method2 only).
	WCCComponents int
	// WCCRounds is Par-WCC's propagation round count.
	WCCRounds int
	// InitialTasks is the number of tasks seeding the recursive phase.
	InitialTasks int
	// Metrics is the run's performance-counter snapshot (parallel
	// algorithms only): kernel barrier rounds, BFS frontier sizes,
	// recursive-phase scheduler activity and scratch-arena reuse.
	Metrics MetricsSnapshot
}

// MetricsSnapshot is the per-run performance-counter totals recorded
// by the parallel engine. The counters are bumped at round granularity
// (never per node or edge), so collection overhead is negligible; they
// exist to make the paper's fixed-cost story — barrier rounds and
// per-round allocations — observable in benchmarks and dashboards.
type MetricsSnapshot = metrics.Snapshot

// Detect decomposes g into strongly connected components. Detect is
// safe to call concurrently on the same graph: graphs are immutable
// and every run allocates its own working state. It is DetectContext
// with a background context: it cannot be canceled.
func Detect(g *graph.Graph, opts Options) (*Result, error) {
	return DetectContext(context.Background(), g, opts)
}

// validateOptions rejects out-of-range Options fields with an
// *OptionError (wrapping ErrInvalidOption) naming the field.
func validateOptions(opts Options) error {
	switch {
	case opts.K < 0:
		return &OptionError{Field: "K", Value: opts.K, Reason: "work-queue batch size must be >= 0"}
	case opts.GiantThreshold < 0 || opts.GiantThreshold > 1:
		return &OptionError{Field: "GiantThreshold", Value: opts.GiantThreshold, Reason: "must be in [0,1]"}
	case opts.MaxPhase1Trials < 0:
		return &OptionError{Field: "MaxPhase1Trials", Value: opts.MaxPhase1Trials, Reason: "must be >= 0"}
	case opts.TraceTasks < 0:
		return &OptionError{Field: "TraceTasks", Value: opts.TraceTasks, Reason: "must be >= 0"}
	case opts.PivotSample < 0:
		return &OptionError{Field: "PivotSample", Value: opts.PivotSample, Reason: "must be >= 0"}
	case opts.StallTimeout < 0:
		return &OptionError{Field: "StallTimeout", Value: opts.StallTimeout, Reason: "must be >= 0"}
	case opts.MemoryLimit < 0:
		return &OptionError{Field: "MemoryLimit", Value: opts.MemoryLimit, Reason: "must be >= 0"}
	case opts.Kernels != KernelsWorklist && opts.Kernels != KernelsLegacy:
		return &OptionError{Field: "Kernels", Value: opts.Kernels, Reason: "unknown kernel selection"}
	case opts.Algorithm < Method2 || opts.Algorithm > Gabow:
		return &OptionError{Field: "Algorithm", Value: opts.Algorithm, Reason: "unknown algorithm"}
	}
	return opts.Chaos.validate()
}

// DetectContext decomposes g into strongly connected components under
// ctx. It is the primary entry point; Detect wraps it with a
// background context.
//
// Cancellation is cooperative. The parallel algorithms (Baseline,
// Method1, Method2, FWBW) poll ctx at every barrier-synchronized
// round — trim iterations, BFS levels, WCC propagation rounds and
// work-queue dequeues — so a canceled run returns within one parallel
// round, after all worker goroutines have joined; partial results are
// discarded and the error wraps both ErrCanceled and ctx.Err(). The
// sequential and extension algorithms (Tarjan, Kosaraju, Gabow, OBF,
// Coloring, MultiStep) check ctx only on entry and then run to
// completion.
//
// Failure envelope (parallel algorithms): a panic on any engine
// worker never crashes the process — the run tears down cleanly and
// the error carries a *PanicError with the worker's stack. With
// Options.StallTimeout a run making no kernel progress is aborted
// with an error wrapping ErrStalled; with Options.MemoryLimit an
// over-budget configuration is degraded (see
// Result.Metrics.DegradedMode) or rejected with an error wrapping
// ErrMemoryBudget before any work starts.
//
// Progress events stream to opts.Observer as the run executes; a nil
// observer adds no overhead.
//
// DetectContext is a thin wrapper over a throwaway Engine: it builds
// one, runs once, and closes it. Repeated detection should construct
// the Engine once with New and call Engine.Detect per run — the warm
// path skips gang startup, option re-validation and all steady-state
// allocations.
func DetectContext(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	if g == nil {
		return nil, detectErr("detect", ErrNilGraph)
	}
	e, err := newEngine(opts)
	if err != nil {
		return nil, detectErr("detect", err)
	}
	defer e.Close()
	return e.detectLocked(ctx, g, nil)
}

// runExtension runs the extension algorithms (OBF, Coloring,
// MultiStep), which execute outside the parallel engine.
func runExtension(g *graph.Graph, opts Options) *Result {
	start := time.Now()
	switch opts.Algorithm {
	case OBF:
		r := obf.Run(g, obf.Options{Workers: opts.Workers, K: opts.K, Seed: opts.Seed})
		return &Result{
			Comp:      r.Comp,
			NumSCCs:   r.NumSCCs,
			Algorithm: OBF,
			Total:     time.Since(start),
			Queue:     r.Queue,
		}
	case Coloring:
		r := coloring.Run(g, coloring.Options{Workers: opts.Workers})
		return &Result{
			Comp:      r.Comp,
			NumSCCs:   r.NumSCCs,
			Algorithm: Coloring,
			Total:     time.Since(start),
		}
	default: // MultiStep
		r := multistep.Run(g, multistep.Options{Workers: opts.Workers, Seed: opts.Seed})
		return &Result{
			Comp:      r.Comp,
			NumSCCs:   r.NumSCCs,
			Algorithm: MultiStep,
			Total:     time.Since(start),
			GiantSCC:  r.GiantSCC,
		}
	}
}

// coreOptions translates the public Options into the engine's; shared
// by DetectContext and EstimateMemory so both see the same run
// configuration. Observer, MemoryLimit and Chaos are absent: they are
// resolved per run and reach the core engine as a core.PerRun.
func coreOptions(opts Options) core.Options {
	return core.Options{
		Workers:         opts.Workers,
		K:               opts.K,
		GiantThreshold:  opts.GiantThreshold,
		MaxPhase1Trials: opts.MaxPhase1Trials,
		Seed:            opts.Seed,
		Kernels:         opts.Kernels,
		DisableTrim2:    opts.DisableTrim2,
		DisableHybrid:   opts.DisableHybrid,
		TraceTasks:      opts.TraceTasks,
		PivotSample:     opts.PivotSample,
		TraceSchedule:   opts.TraceSchedule,
		StallTimeout:    opts.StallTimeout,
	}
}

// engineErr maps an engine failure to the public typed errors: a
// captured worker panic becomes a *PanicError, a watchdog abort wraps
// ErrStalled, a rejected memory budget wraps ErrMemoryBudget, and
// everything else is caller cancellation.
func engineErr(op string, err error) error {
	var wp *parallel.WorkerPanic
	if errors.As(err, &wp) {
		return &Error{Op: op, Err: &PanicError{Value: wp.Value, Stack: wp.Stack, Worker: wp.Worker}}
	}
	var se *core.StallError
	if errors.As(err, &se) {
		return &Error{Op: op, Err: fmt.Errorf("%w: %w", ErrStalled, se)}
	}
	var be *core.BudgetError
	if errors.As(err, &be) {
		return &Error{Op: op, Err: fmt.Errorf("%w: %w", ErrMemoryBudget, be)}
	}
	return canceledErr(op, err)
}

// EstimateMemory returns the parallel engine's estimated worst-case
// scratch + engine footprint, in bytes, for an n-node graph under
// opts — the quantity Options.MemoryLimit bounds. The estimate is a
// deliberately pessimistic monotone upper bound (worst-case degree
// skew, every retained buffer at full capacity); real usage is
// usually far lower. Sequential and extension algorithms do not run
// on the engine and report 0.
func EstimateMemory(n int, opts Options) int64 {
	switch opts.Algorithm {
	case Baseline, Method1, Method2, FWBW:
		return core.EstimateMemory(n, coreAlgorithm(opts.Algorithm), coreOptions(opts))
	}
	return 0
}

func coreAlgorithm(a Algorithm) core.Algorithm {
	switch a {
	case Baseline:
		return core.Baseline
	case Method1:
		return core.Method1
	case FWBW:
		return core.FWBW
	default:
		return core.Method2
	}
}

// Validate checks that comp is exactly the SCC decomposition of g:
// every label class is strongly connected and the condensation is
// acyclic. It is O(n+m) and intended for tests and untrusted inputs.
func Validate(g *graph.Graph, comp []int32) error {
	return verify.CheckDecomposition(g, comp)
}

// SamePartition reports whether two component labelings induce the
// same partition of the node set (equal up to label renaming).
func SamePartition(a, b []int32) bool { return verify.SamePartition(a, b) }
