// Package core implements the paper's SCC detection algorithms: the
// Baseline parallel FW-BW-Trim (Algorithm 3), Method 1's two-phase
// parallelization (Algorithm 6), and Method 2 with Trim2 and parallel
// WCC (Algorithm 9), plus the instrumentation (per-phase timing, node
// attribution, task logs, queue-depth statistics) behind the paper's
// Figures 6-8 and the §3.3 execution logs.
//
// The engine never mutates the input graph (§4.1). Two side arrays
// carry all algorithm state:
//
//   - color[v]: the partition color of v. 0 is the initial partition;
//     new colors are allocated from an atomic counter; -1 (Removed)
//     means v's SCC has been identified ("mark" in the paper — the mark
//     bit and the tombstone color are folded together).
//   - comp[v]: once v's SCC is identified, the representative node id
//     of that SCC (the pivot for FW-BW-found components, the node
//     itself for trimmed singletons, the smaller node for Trim2 pairs).
package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/bfs"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/worklist"
)

// Algorithm selects which of the paper's algorithms Run executes.
type Algorithm int

const (
	// Baseline is Algorithm 3: parallel Trim followed by task-parallel
	// recursive FW-BW starting from a single partition.
	Baseline Algorithm = iota
	// Method1 is Algorithm 6: Par-Trim, data-parallel FW-BW to peel the
	// giant SCC, Par-Trim again, then task-parallel recursion.
	Method1
	// Method2 is Algorithm 9: Method 1 plus Par-Trim2 and Par-WCC
	// before the task-parallel recursion.
	Method2
	// FWBW is Fleischer et al.'s original algorithm: task-parallel
	// recursive FW-BW with no trimming at all — the pre-McLendon
	// baseline the paper's related-work section starts from.
	FWBW
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Baseline:
		return "Baseline"
	case Method1:
		return "Method1"
	case Method2:
		return "Method2"
	case FWBW:
		return "FW-BW"
	default:
		return "Unknown"
	}
}

// Kernels selects the trim and WCC kernel implementations.
type Kernels int

const (
	// KernelsWorklist (the zero value, default) selects the
	// work-efficient active-set kernels: support-pointer trim
	// (near-linear total, no per-round rescans) and union-find WCC (Afforest-style
	// sampling + hooking instead of label-propagation rounds).
	KernelsWorklist Kernels = iota
	// KernelsLegacy selects the paper's round-based fixpoint kernels:
	// Par-Trim (Algorithm 4) and Par-WCC (Algorithm 7).
	KernelsLegacy
)

// String returns the flag spelling of the kernel selection.
func (k Kernels) String() string {
	switch k {
	case KernelsWorklist:
		return "worklist"
	case KernelsLegacy:
		return "legacy"
	default:
		return "unknown"
	}
}

// Phase identifies one segment of the execution breakdown (Figure 7).
type Phase int

const (
	// PhaseParTrim is the initial parallel Trim.
	PhaseParTrim Phase = iota
	// PhaseParFWBW is the data-parallel FW-BW step that peels the giant
	// SCC (Methods 1 and 2 only).
	PhaseParFWBW
	// PhaseParTrimPost covers Par-Trim′: the post-FWBW trimming — Trim
	// for Method 1; Trim, Trim2, Trim for Method 2.
	PhaseParTrimPost
	// PhaseParWCC is the parallel weakly-connected-components step
	// (Method 2 only). It identifies no SCCs; it costs time and buys
	// task parallelism.
	PhaseParWCC
	// PhaseRecurFWBW is the task-parallel recursive FW-BW phase.
	PhaseRecurFWBW

	// NumPhases is the number of phases.
	NumPhases
)

// String returns the phase label used in Figure 7.
func (p Phase) String() string {
	switch p {
	case PhaseParTrim:
		return "Par-Trim"
	case PhaseParFWBW:
		return "Par-FWBW"
	case PhaseParTrimPost:
		return "Par-Trim'"
	case PhaseParWCC:
		return "Par-WCC"
	case PhaseRecurFWBW:
		return "Recur-FWBW"
	default:
		return "Unknown"
	}
}

// Options configures a Run.
type Options struct {
	// Workers is the number of parallel workers (threads). <= 0 selects
	// GOMAXPROCS.
	Workers int
	// K is the work-queue batch size (§4.3). 0 selects the paper's
	// defaults: 1 for Baseline and Method 1, 8 for Method 2.
	K int
	// GiantThreshold is the fraction of the graph's nodes above which
	// an SCC found in phase 1 counts as "the giant SCC" and phase 1
	// stops (§3.2 uses 1%). 0 selects 0.01.
	GiantThreshold float64
	// MaxPhase1Trials bounds the number of data-parallel FW-BW trials
	// (§3.2 "a predefined number of iterations"). 0 selects 3.
	MaxPhase1Trials int
	// Seed drives pivot selection, making runs reproducible.
	Seed int64
	// Kernels selects the trim and WCC kernel implementations: the
	// work-efficient worklist kernels (the zero value) or the paper's
	// round-based legacy kernels. Both produce identical partitions;
	// the worklist kernels do O(N+M) total trim work and replace WCC
	// propagation rounds with a constant number of union-find passes.
	Kernels Kernels
	// DisableTrim2 drops the Par-Trim2 step from Method 2 (ablation for
	// the §3.4 claim that Trim2 halves WCC time).
	DisableTrim2 bool
	// DisableHybrid drops the hybrid set representation (§4.1): phase-2
	// tasks go by their color alone, and pivot selection plus partition
	// enumeration scan the full Color array (the ~10x-slower variant
	// the paper warns about).
	DisableHybrid bool
	// TraceTasks, if > 0, records the first TraceTasks phase-2 task
	// executions in Result.TaskLog (the §3.3 log).
	TraceTasks int
	// PivotSample is the number of candidate nodes examined when
	// choosing a phase-1 pivot; the highest in×out degree product wins
	// (maximizing the chance of landing inside the giant SCC). 0
	// selects 64; 1 reproduces the paper's uniform-random choice.
	PivotSample int
	// TraceSchedule records the phase-2 task dependency DAG with
	// per-task durations in Result.TaskTrace, for replay through the
	// makespan scheduling simulator.
	TraceSchedule bool
	// StallTimeout, when > 0, arms a per-run watchdog: if no kernel
	// completes a round (trim iteration, BFS level, WCC round, phase-2
	// task) for this long, the run emits a Stalled event and aborts
	// with a *StallError. The window must exceed the longest legitimate
	// barrier round — progress is reported at round granularity. The
	// watchdog also force-aborts a barrier that stays wedged past one
	// window after the context fires (kernels otherwise notice
	// cancellation only at round boundaries). 0 disables it.
	StallTimeout time.Duration
}

func (o Options) withDefaults(alg Algorithm) Options {
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
	if o.K == 0 {
		if alg == Method2 {
			o.K = 8
		} else {
			o.K = 1
		}
	}
	if o.GiantThreshold == 0 {
		o.GiantThreshold = 0.01
	}
	if o.MaxPhase1Trials == 0 {
		o.MaxPhase1Trials = 3
	}
	if o.PivotSample == 0 {
		o.PivotSample = 64
	}
	return o
}

// PhaseStats is one phase's share of the execution (Figures 7 and 8).
type PhaseStats struct {
	// Time is wall-clock time spent in the phase.
	Time time.Duration
	// Nodes is the number of nodes whose SCC was identified during the
	// phase (Figure 8's per-phase fractions).
	Nodes int64
	// SCCs is the number of SCCs emitted during the phase.
	SCCs int64
	// Rounds counts the phase's barrier-synchronized parallel rounds
	// (trim fixpoint iterations, BFS levels, WCC propagation rounds);
	// the speedup model charges a barrier cost per round.
	Rounds int
}

// TaskRecord logs one phase-2 task execution in the format of the
// §3.3 log: the size of the SCC found and of the three partitions
// produced.
type TaskRecord struct {
	SCC, FW, BW, Remain int
}

// Result carries the decomposition and all instrumentation.
type Result struct {
	// Comp maps each node to its SCC representative node id.
	Comp []int32
	// NumSCCs is the number of strongly connected components.
	NumSCCs int64
	// Phases is the per-phase execution breakdown.
	Phases [NumPhases]PhaseStats
	// Total is the end-to-end wall-clock time.
	Total time.Duration
	// Queue is the phase-2 work-queue statistics; Queue.PeakReady is
	// the paper's "maximum queue depth".
	Queue worklist.Stats
	// TaskLog is the first Options.TraceTasks phase-2 task executions.
	TaskLog []TaskRecord
	// GiantSCC is the size of the largest SCC found in phase 1 (0 for
	// Baseline).
	GiantSCC int64
	// Phase1Trials is the number of data-parallel FW-BW trials run.
	Phase1Trials int
	// Phase1Levels is the total number of parallel BFS levels across
	// phase-1 trials (small for small-world graphs).
	Phase1Levels int
	// WCCComponents is the number of weakly connected components found
	// by Par-WCC (Method 2), i.e. the number of seeded phase-2 tasks
	// from WCC.
	WCCComponents int
	// WCCRounds is the number of label-propagation rounds Par-WCC
	// needed (§5: large on non-small-world graphs).
	WCCRounds int
	// InitialTasks is the number of tasks seeding the phase-2 queue.
	InitialTasks int
	// TaskTrace is the phase-2 task DAG (only with
	// Options.TraceSchedule): TaskTrace[i] executed after its parent
	// finished, taking Duration. Parent -1 marks seed tasks.
	TaskTrace []TaskTrace
	// Metrics is the run's performance-counter snapshot: kernel
	// barrier rounds, frontier sizes, phase-2 scheduler activity and
	// scratch-arena reuse (see internal/metrics).
	Metrics metrics.Snapshot
	// Degraded notes the degradation steps PerRun.MemoryLimit forced
	// (e.g. "workers=2,workers=1,k=1"); empty when the run
	// executed as configured. Also mirrored to Metrics.DegradedMode.
	Degraded string
}

// TaskTrace is one recorded phase-2 task execution for the scheduling
// simulator.
type TaskTrace struct {
	// Parent is the index (in Result.TaskTrace) of the task that
	// spawned this one, or -1 for queue seeds.
	Parent int32
	// Duration is the task's measured sequential execution time.
	Duration time.Duration
}

// SizeHistogram returns hist[s] = number of SCCs of size s (index 0
// unused), computed from Comp — the data behind Figures 2 and 9.
func (r *Result) SizeHistogram() []int64 {
	counts := make(map[int32]int64, 1024)
	for _, c := range r.Comp {
		counts[c]++
	}
	maxSize := int64(0)
	for _, n := range counts {
		if n > maxSize {
			maxSize = n
		}
	}
	hist := make([]int64, maxSize+1)
	for _, n := range counts {
		hist[n]++
	}
	return hist
}

// LargestSCC returns the size of the largest component in Comp.
func (r *Result) LargestSCC() int64 {
	counts := make(map[int32]int64, 1024)
	var best int64
	for _, c := range r.Comp {
		counts[c]++
		if counts[c] > best {
			best = counts[c]
		}
	}
	return best
}

// Removed is the tombstone color of nodes whose SCC is identified.
const Removed int32 = -1

// engine is the mutable state of one Run.
type engine struct {
	g   *graph.Graph
	opt Options
	alg Algorithm

	color []int32
	comp  []int32

	nextColor atomic.Int32
	res       *Result
	// sink carries the run's cancellation context and observer; nil
	// when neither is in use (the common, zero-overhead case).
	sink *events.Sink
	// ar is the run's scratch arena; every kernel draws its working
	// buffers from it, and every parallel section runs on its gang.
	// ctr is the run's performance-counter set (also reachable through
	// ar).
	ar  *scratch.Arena
	ctr *metrics.Counters
	// colorScratch backs perColor.
	colorScratch []int32

	// pq is the two-level queue phase 2 runs, at the run's workers and
	// K; the watchdog cancels it on a force-abort.
	pq *worklist.Queue[task]

	// Per-trial phase-1 scratch and the phase-2 task build buffer,
	// hoisted onto the engine so repeated trials — and repeated runs on
	// a persistent Engine — construct their seed and task slices
	// without allocating.
	seedBuf [1]graph.NodeID
	taskBuf []task

	// order is the run's phase-2 order array, an arena node buffer from
	// the grouping of the seed tasks until phase 2 drains: each task
	// owns the range of it that holds its partition's nodes (see task).
	order []graph.NodeID

	// fw and bw are phase 1's forward and backward searches, claiming
	// into the arena's bitmaps fwBits and bwBits. openFn is the gang
	// body that opens both at once, bound once (first opening) and
	// retained across runs like taskFn.
	fw, bw         bfs.Search
	fwBits, bwBits []uint32
	openFn         func(worker int)

	// pubFn is the publication pass's body, bound once like openFn; the
	// pass in flight reads its members, pivot and the colors of FW only
	// and BW only from the pub fields and counts its SCC into pubCounts.
	pubFn     func(worker, lo, hi int)
	pubNodes  []graph.NodeID
	pubPivot  graph.NodeID
	cfw, cbw  int32
	pubCounts []int64

	// taskFn is the phase-2 task body, bound once (first phase2 call)
	// and retained across runs so the steady state never rebuilds the
	// closure; its per-run inputs live in engine fields. p2Nodes and
	// p2SCCs accumulate the phase's totals; logMu serializes
	// TaskLog/TaskTrace appends.
	taskFn  func(worker int, t task)
	p2Nodes atomic.Int64
	p2SCCs  atomic.Int64
	logMu   sync.Mutex

	// barriersAborted records that the watchdog force-aborted the
	// gang; the gang (and any Engine pinning it) is dead afterwards.
	barriersAborted atomic.Bool

	taskCount atomic.Int64 // phase-2 tasks executed (for TraceTasks)
	obsTasks  atomic.Int64 // phase-2 tasks observed (QueueSample pacing)
	rngState  atomic.Uint64

	// curPhase is the phase the coordinating goroutine is executing,
	// tracked atomically so the watchdog goroutine can stamp it onto a
	// Stalled event without racing the pipeline's phase changes.
	curPhase atomic.Int32
}

// abortBarriers force-releases the barrier the coordinating goroutine
// could be wedged on: it aborts the arena's gang, which every parallel
// section runs on, and cancels the phase-2 queue so the workers that
// are not wedged stop dispatching. Called from the watchdog goroutine;
// the released dispatcher panics parallel.ErrBarrierAbandoned, which
// Engine.Run's recover turns into the run's error.
func (e *engine) abortBarriers() {
	e.barriersAborted.Store(true)
	e.ar.Abort()
	e.pq.Cancel()
}

// newColor allocates a fresh partition color.
func (e *engine) newColor() int32 { return e.nextColor.Add(1) }

// perColor returns a slice indexed by color, every entry set to fill.
// Colors are dense — nextColor hands them out from 0 in each run — so
// the slice covers every color in use. It is retained on the engine:
// only one caller may hold it at a time.
func (e *engine) perColor(fill int32) []int32 {
	k := int(e.nextColor.Load()) + 1
	if cap(e.colorScratch) < k {
		e.colorScratch = make([]int32, k, 2*k)
	}
	s := e.colorScratch[:k]
	for i := range s {
		s[i] = fill
	}
	return s
}

// splitmix64 advances the engine's shared RNG state; used only for
// pivot randomization, where contention is negligible (one call per
// task or trial).
func (e *engine) rand64() uint64 {
	z := e.rngState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func defaultWorkers() int { return parallel.DefaultWorkers() }
