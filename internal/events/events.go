// Package events defines the engine's structured progress events and
// the cancellation-aware Sink threaded through the parallel kernels.
//
// The public scc package re-exports Event, Type and Observer via type
// aliases, so one canonical definition serves the engine with zero
// conversion cost; the internal packages (core, bfs, trim, wcc) emit
// events and poll cancellation through a *Sink.
//
// Everything is designed around a nil fast path: a nil *Sink (no
// observer attached and no cancelable context) makes every Emit and
// Err call a two-instruction no-op, so instrumentation costs nothing
// on the hot path when unused.
package events

import "context"

// Type discriminates the engine's event kinds.
type Type uint8

const (
	// PhaseStart marks entry into a phase (Event.Phase).
	PhaseStart Type = iota
	// PhaseEnd marks a phase's completion; Nodes/SCCs/Round carry the
	// phase's cumulative totals (nodes identified, SCCs emitted,
	// barrier rounds).
	PhaseEnd
	// TrimRound is one Par-Trim fixpoint iteration; Round is the
	// 1-based iteration and Nodes the nodes removed in it.
	TrimRound
	// BFSLevel is one level-synchronous BFS step of the data-parallel
	// FW-BW sweep; Round is the 1-based level within its search
	// (forward or backward) and Frontier the level's frontier size.
	BFSLevel
	// WCCRound is one weakly-connected-component label-propagation
	// round; Round is the 1-based round index.
	WCCRound
	// QueueSample is a periodic snapshot of the recursive phase's work
	// queue: Queued items ready, Executed items completed.
	QueueSample
	// TaskDone reports one completed recursive FW-BW task; Nodes is the
	// size of the SCC the task identified.
	TaskDone
	// RunMetrics is emitted once at the end of a successful run with
	// the run's performance-counter totals: BuffersReused and
	// BytesReused carry the scratch-arena counters (the full snapshot
	// is on the Result).
	RunMetrics
	// Stalled reports the watchdog declaring the run stalled: no kernel
	// completed a round within the configured window. Phase is the
	// phase that was executing, Round the heartbeat value at detection.
	// It is the run's final event; the run then aborts with a stall
	// error.
	Stalled
)

// String names the event type.
func (t Type) String() string {
	switch t {
	case PhaseStart:
		return "PhaseStart"
	case PhaseEnd:
		return "PhaseEnd"
	case TrimRound:
		return "TrimRound"
	case BFSLevel:
		return "BFSLevel"
	case WCCRound:
		return "WCCRound"
	case QueueSample:
		return "QueueSample"
	case TaskDone:
		return "TaskDone"
	case RunMetrics:
		return "RunMetrics"
	case Stalled:
		return "Stalled"
	default:
		return "Unknown"
	}
}

// Event is one structured notification from a running decomposition.
// It is a plain value — no pointers, no allocation per event.
type Event struct {
	// Type discriminates which of the remaining fields are meaningful.
	Type Type
	// Phase is the emitting phase's index, an scc.Phase value.
	Phase int
	// Round is the 1-based barrier round within the phase (trim
	// iteration, BFS level, WCC propagation round).
	Round int
	// Nodes counts nodes whose SCC was identified (per round for
	// TrimRound, per task for TaskDone, cumulative for PhaseEnd).
	Nodes int64
	// SCCs counts components emitted (PhaseEnd).
	SCCs int64
	// Frontier is the BFS frontier size (BFSLevel).
	Frontier int
	// Queued and Executed are work-queue counters (QueueSample).
	Queued, Executed int64
	// BuffersReused and BytesReused are the scratch-arena reuse
	// totals: buffers recycled instead of freshly allocated, and the
	// capacity in bytes those reuses recycled (RunMetrics).
	BuffersReused, BytesReused int64
}

// Observer receives engine events. Implementations must be safe for
// concurrent use: phase-boundary and round events arrive from the
// coordinating goroutine, but TaskDone and QueueSample events are
// emitted concurrently by worker goroutines, and so are the BFSLevel
// events of Par-FWBW's opening, where the forward and backward
// searches run on two gang workers at once; a BFSLevel's Round is the
// level within its own search. Observe must not block for long — it
// runs inline at barrier boundaries.
type Observer interface {
	Observe(Event)
}

// Sink bundles the run's cancellation context and observer for
// threading through the parallel kernels. A nil *Sink is fully
// functional: never canceled, no events. NewSink returns nil whenever
// both facilities are unused, so kernels pay nothing by default.
type Sink struct {
	ctx   context.Context
	obs   Observer
	phase int
}

// NewSink builds a Sink for a run. It returns nil — the zero-cost
// sink — if obs is nil and ctx can never be canceled (Background,
// TODO, or value-only contexts have a nil Done channel).
func NewSink(ctx context.Context, obs Observer) *Sink {
	if ctx == nil {
		ctx = context.Background()
	}
	if obs == nil && ctx.Done() == nil {
		return nil
	}
	return &Sink{ctx: ctx, obs: obs}
}

// Err reports the sink's cancellation state: nil while the run may
// continue, the context's error once it is canceled or past its
// deadline. Kernels poll it at barrier/round boundaries.
func (s *Sink) Err() error {
	if s == nil {
		return nil
	}
	return s.ctx.Err()
}

// Context returns the sink's context, or nil for the nil sink.
func (s *Sink) Context() context.Context {
	if s == nil {
		return nil
	}
	return s.ctx
}

// Active reports whether an observer is attached. Hot paths use it to
// skip event construction entirely.
func (s *Sink) Active() bool { return s != nil && s.obs != nil }

// SetPhase sets the phase index stamped onto subsequently emitted
// events. It must only be called between phases (no concurrent Emit
// in flight); the engines call it from the coordinating goroutine
// before spawning a phase's workers, which establishes the necessary
// happens-before edge.
func (s *Sink) SetPhase(p int) {
	if s != nil {
		s.phase = p
	}
}

// Emit delivers ev to the observer, stamping the current phase. It is
// a no-op on a nil sink or when no observer is attached.
func (s *Sink) Emit(ev Event) {
	if s == nil || s.obs == nil {
		return
	}
	ev.Phase = s.phase
	s.obs.Observe(ev)
}

// EmitPhase delivers ev with its Phase field left as the caller set
// it. The watchdog goroutine uses it: it runs concurrently with the
// coordinating goroutine, so reading the sink's phase (written by
// SetPhase without synchronization) would race — the watchdog instead
// stamps the engine's atomically tracked phase itself.
func (s *Sink) EmitPhase(ev Event) {
	if s == nil || s.obs == nil {
		return
	}
	s.obs.Observe(ev)
}
