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
	"time"

	"repro/graph"
	"repro/internal/coloring"
	"repro/internal/core"
	"repro/internal/multistep"
	"repro/internal/obf"
	"repro/internal/parallel"
	"repro/internal/verify"
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
// they differ only in how much work the fixpoints cost.
type Kernels int

const (
	// KernelsWorklist (the zero value, and the default) selects the
	// work-efficient active-set kernels: counter-peeling trim — degree
	// counters computed once, zero-degree nodes peeled through a
	// frontier worklist, O(N+M) total work regardless of chain depth —
	// and union-find WCC (lock-free union by minimum representative
	// with path halving, Afforest-style neighbor sampling, and a full
	// pass that skips the most frequent sampled component).
	KernelsWorklist Kernels = iota
	// KernelsLegacy selects the paper's round-based fixpoint kernels:
	// Par-Trim (Algorithm 4) rescans every candidate's adjacency each
	// round, and Par-WCC (Algorithm 7) runs min-label propagation
	// rounds. Kept for ablation and as the reference the differential
	// suite compares against.
	KernelsLegacy
	// KernelsMultiPivot keeps the worklist trim/WCC kernels but runs
	// every FW/BW reachability — phase 1's giant-SCC sweeps and the
	// whole recursive phase — through a multi-pivot concurrent
	// reachability engine (after Wang et al., arXiv:2303.04934): all
	// live partitions search simultaneously over a stamped (vertex,
	// pivot-label) claim table, and vertical local searches collapse
	// long chains inside one wave. Same partition as the other kernels;
	// dramatically fewer barriers on high-diameter (road-network,
	// deep-chain) graphs. TraceSchedule is ignored under this kernel —
	// there is no per-task schedule to record.
	KernelsMultiPivot
)

// String returns the flag spelling ("worklist", "legacy",
// "multipivot").
func (k Kernels) String() string { return core.Kernels(k).String() }

// ParseKernels maps a flag spelling (see Kernels.String) to its
// Kernels value.
func ParseKernels(s string) (Kernels, error) {
	switch s {
	case "worklist":
		return KernelsWorklist, nil
	case "legacy":
		return KernelsLegacy, nil
	case "multipivot":
		return KernelsMultiPivot, nil
	}
	return 0, fmt.Errorf("scc: unknown kernels %q (want worklist|legacy|multipivot)", s)
}

// Phase identifies one segment of a parallel run's execution
// breakdown (Figure 7 of the paper).
type Phase int

const (
	// PhaseParTrim is the initial parallel Trim.
	PhaseParTrim Phase = iota
	// PhaseParFWBW is the data-parallel giant-SCC detection.
	PhaseParFWBW
	// PhaseParTrimPost is Par-Trim′ (post-FWBW trimming, including
	// Trim2 for Method2).
	PhaseParTrimPost
	// PhaseParWCC is parallel weakly-connected-component seeding.
	PhaseParWCC
	// PhaseRecurFWBW is the task-parallel recursive FW-BW phase.
	PhaseRecurFWBW
	// NumPhases is the number of phases.
	NumPhases
)

// String returns the phase label used in the paper's Figure 7.
func (p Phase) String() string { return core.Phase(p).String() }

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
	// zero value is KernelsWorklist (work-efficient counter peeling +
	// union-find). KernelsLegacy restores the paper's round-based
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
	// Trim2Iterations repeats Method2's Trim2+Trim pair (the paper
	// applies Trim2 once, §3.4); 0 = once.
	Trim2Iterations int
	// EnableTrim3 adds a size-3 SCC detection pass after Trim2 (an
	// extension beyond the paper; see BenchmarkAblationTrim3).
	EnableTrim3 bool
	// UseStealing swaps the §4.3 two-level work queue for a
	// work-stealing scheduler in the recursive phase (design ablation).
	UseStealing bool
	// Validate re-checks the decomposition against the graph before
	// returning (adds O(n+m) verification time).
	Validate bool
	// Observer, if non-nil, receives structured progress events (phase
	// boundaries, kernel rounds, task completions) during the parallel
	// algorithms' runs; see the Observer type. Sequential algorithms
	// emit no events. A nil Observer costs nothing.
	//
	// Deprecated: prefer the per-run WithObserver RunOption on
	// Engine.Detect. This field keeps working as the engine-level
	// default that WithObserver overrides, and remains the only way to
	// attach an observer to the one-shot Detect/DetectContext.
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
	// pool is shed before a run that would exceed it).
	//
	// Deprecated: prefer the per-run WithMemoryLimit RunOption on
	// Engine.Detect. This field keeps working as the engine-level
	// default that WithMemoryLimit overrides.
	MemoryLimit int64
	// Chaos, if non-nil, injects deterministic failures into the
	// parallel engine's kernels for robustness testing; see
	// ChaosConfig. Nil costs nothing.
	//
	// Deprecated: prefer the per-run WithChaos RunOption on
	// Engine.Detect. This field keeps working as the engine-level
	// default that WithChaos overrides; hit ordinals are counted per
	// run in either form.
	Chaos *ChaosConfig
}

// PhaseStats is one phase's share of a parallel run.
type PhaseStats struct {
	// Time is the phase's wall-clock time.
	Time time.Duration
	// Nodes is how many nodes had their SCC identified in the phase.
	Nodes int64
	// SCCs is how many SCCs the phase emitted.
	SCCs int64
	// Rounds is the phase's number of barrier-synchronized parallel
	// rounds (trim iterations, BFS levels, WCC rounds).
	Rounds int
}

// TaskRecord is one recursive-phase task execution in the format of
// the paper's §3.3 log.
type TaskRecord struct {
	// SCC is the size of the SCC the task identified.
	SCC int
	// FW, BW and Remain are the sizes of the three partitions the task
	// produced.
	FW, BW, Remain int
}

// TaskTrace is one recorded task for the scheduling simulator.
type TaskTrace struct {
	// Parent is the index of the spawning task, or -1 for seeds.
	Parent int32
	// Duration is the task's measured sequential duration.
	Duration time.Duration
}

// QueueStats reports work-queue behavior for the recursive phase.
type QueueStats struct {
	// PeakReady is the maximum number of simultaneously queued tasks —
	// the paper's "maximum queue depth" measure of available
	// task-level parallelism.
	PeakReady int64
	// Total is the number of tasks ever enqueued.
	Total int64
}

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
type MetricsSnapshot struct {
	// TrimRounds is the total number of trim fixpoint iterations;
	// TrimmedNodes the nodes they removed; Trim2Pairs the size-2 SCCs
	// found by Trim2 passes.
	TrimRounds   int64
	TrimmedNodes int64
	Trim2Pairs   int64
	// BFSLevels is the total number of BFS level barriers across both
	// phase-1 sweeps; FrontierNodes the summed frontier sizes;
	// FrontierPeak the largest single-level frontier; BitmapLevels how
	// many of those levels swept bottom-up over the partition.
	BFSLevels     int64
	FrontierNodes int64
	FrontierPeak  int64
	BitmapLevels  int64
	// WCCRounds is the number of WCC barrier rounds: label-propagation
	// rounds under KernelsLegacy, the constant union-find pass count
	// under KernelsWorklist.
	WCCRounds int64
	// TrimPushes is the number of nodes the counter-peeling trim
	// kernel pushed onto its frontier (bounded by the candidate
	// count); PeelDepth the number of peel waves it drained. Both are
	// 0 under KernelsLegacy.
	TrimPushes int64
	PeelDepth  int64
	// UFUnions is the union-find WCC kernel's successful hooks;
	// UFFindHops the parent-pointer hops its finds walked (including
	// path halving); SampledSkips the nodes whose full pass was
	// skipped because sampling already placed them in the most
	// frequent component. All 0 under KernelsLegacy.
	UFUnions     int64
	UFFindHops   int64
	SampledSkips int64
	// PivotBatches is the number of multi-pivot sweep rounds (one
	// concurrent FW+BW reachability pass over every live partition);
	// ReachWaves the wave barriers inside those sweeps; ReachClaims the
	// (vertex, pivot-label) claims won; LocalCollapses the chain nodes
	// folded into an earlier wave by vertical local searches. All 0
	// unless KernelsMultiPivot.
	PivotBatches   int64
	ReachWaves     int64
	ReachClaims    int64
	LocalCollapses int64
	// Tasks is the number of recursive-phase tasks executed (partition
	// classifications under KernelsMultiPivot); Steals the successful
	// steals under the work-stealing ablation.
	Tasks  int64
	Steals int64
	// BuffersReused counts scratch-arena buffer reuses that replaced
	// fresh allocations; BytesReused is the capacity they recycled.
	BuffersReused int64
	BytesReused   int64
	// DegradedMode notes the degradation steps Options.MemoryLimit
	// forced on the run, comma-separated in the order applied (e.g.
	// "workers=2,workers=1,k=1"); empty when the run executed
	// exactly as configured.
	DegradedMode string
}

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
	case opts.Trim2Iterations < 0:
		return &OptionError{Field: "Trim2Iterations", Value: opts.Trim2Iterations, Reason: "must be >= 0"}
	case opts.StallTimeout < 0:
		return &OptionError{Field: "StallTimeout", Value: opts.StallTimeout, Reason: "must be >= 0"}
	case opts.MemoryLimit < 0:
		return &OptionError{Field: "MemoryLimit", Value: opts.MemoryLimit, Reason: "must be >= 0"}
	case opts.Kernels != KernelsWorklist && opts.Kernels != KernelsLegacy && opts.Kernels != KernelsMultiPivot:
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
			Queue:     QueueStats{PeakReady: r.Queue.PeakReady, Total: r.Queue.Total},
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
// configuration.
func coreOptions(opts Options) core.Options {
	return core.Options{
		Workers:         opts.Workers,
		K:               opts.K,
		GiantThreshold:  opts.GiantThreshold,
		MaxPhase1Trials: opts.MaxPhase1Trials,
		Seed:            opts.Seed,
		Kernels:         core.Kernels(opts.Kernels),
		DisableTrim2:    opts.DisableTrim2,
		DisableHybrid:   opts.DisableHybrid,
		TraceTasks:      opts.TraceTasks,
		PivotSample:     opts.PivotSample,
		TraceSchedule:   opts.TraceSchedule,
		Trim2Iterations: opts.Trim2Iterations,
		EnableTrim3:     opts.EnableTrim3,
		UseStealing:     opts.UseStealing,
		Observer:        opts.Observer,
		StallTimeout:    opts.StallTimeout,
		MemoryLimit:     opts.MemoryLimit,
		// Chaos is deliberately absent: injectors hold per-run hit
		// counters, so a fresh one is built per run and delivered via
		// core.Overrides rather than baked into engine construction.
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
