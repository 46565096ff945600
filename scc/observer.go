package scc

import "repro/internal/events"

// Event is one structured progress event emitted during a parallel
// run: phase boundaries, per-round kernel progress (trim iterations,
// BFS levels, WCC label-propagation rounds), recursive-phase task
// completions, and periodic work-queue depth samples.
//
// Event.Phase carries the int value of the Phase constants above
// (convert with Phase(ev.Phase)).
type Event = events.Event

// EventType discriminates Event values.
type EventType = events.Type

// The event types delivered to an Observer.
const (
	// EventPhaseStart marks entry into a phase; Event.Phase identifies
	// it.
	EventPhaseStart = events.PhaseStart
	// EventPhaseEnd marks phase completion; Round/Nodes/SCCs carry the
	// phase's cumulative totals.
	EventPhaseEnd = events.PhaseEnd
	// EventTrimRound reports one parallel trim iteration; Nodes is the
	// number of nodes removed that round.
	EventTrimRound = events.TrimRound
	// EventBFSLevel reports one parallel BFS level; Round is the level
	// within its forward or backward search, Frontier the level's
	// frontier size.
	EventBFSLevel = events.BFSLevel
	// EventWCCRound reports one WCC label-propagation round.
	EventWCCRound = events.WCCRound
	// EventQueueSample is a periodic recursive-phase queue-depth
	// sample; Queued and Executed carry the instantaneous counters.
	EventQueueSample = events.QueueSample
	// EventTaskDone reports one completed recursive-phase task; Nodes
	// is the size of the SCC it identified.
	EventTaskDone = events.TaskDone
	// EventRunMetrics is emitted once at the end of a successful
	// parallel run; BuffersReused and BytesReused carry the run's
	// scratch-arena counters (the full snapshot is Result.Metrics).
	EventRunMetrics = events.RunMetrics
	// EventStalled reports the stall watchdog (Options.StallTimeout)
	// detecting a run with no kernel progress for the configured
	// window, immediately before it aborts the run with ErrStalled;
	// Phase is the wedged phase and Round the run's progress counter at
	// detection. Delivered from the watchdog goroutine.
	EventStalled = events.Stalled
)

// Observer receives progress events from a run. Implementations must
// be safe for concurrent use: recursive-phase events (EventTaskDone,
// EventQueueSample) are delivered from multiple worker goroutines, and
// so are Par-FWBW's EventBFSLevel events while its forward and
// backward searches run side by side (Round then counts levels within
// each search). Observe must not block — it runs on the engine's
// critical path.
//
// A nil Options.Observer costs nothing: the engine skips event
// construction entirely.
type Observer = events.Observer

// ObserverFunc adapts a function to the Observer interface. The
// function must satisfy Observer's concurrency contract.
type ObserverFunc func(Event)

// Observe calls f(ev).
func (f ObserverFunc) Observe(ev Event) { f(ev) }
