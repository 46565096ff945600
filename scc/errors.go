package scc

import (
	"errors"
	"fmt"
)

// Sentinel errors returned (wrapped) by Detect and DetectContext.
// Match them with errors.Is.
var (
	// ErrNilGraph reports a nil *graph.Graph argument.
	ErrNilGraph = errors.New("nil graph")
	// ErrInvalidOption reports an Options field outside its valid
	// range. The concrete error is an *OptionError naming the field;
	// retrieve it with errors.As.
	ErrInvalidOption = errors.New("invalid option")
	// ErrCanceled reports that the run's context was canceled or its
	// deadline expired before detection completed. Errors wrapping
	// ErrCanceled also wrap the context's own error, so
	// errors.Is(err, context.Canceled) (or context.DeadlineExceeded)
	// holds as appropriate.
	ErrCanceled = errors.New("detection canceled")
	// ErrValidation reports that Options.Validate found the computed
	// decomposition inconsistent with the graph (an engine bug, not a
	// user error).
	ErrValidation = errors.New("self-validation failed")
	// ErrStalled reports that the stall watchdog (Options.StallTimeout)
	// aborted a run that made no kernel progress for the configured
	// window. The underlying error names the stalled phase and window.
	ErrStalled = errors.New("detection stalled")
	// ErrMemoryBudget reports that Options.MemoryLimit is below the
	// estimated footprint of even the most degraded configuration; no
	// work was started. The underlying error carries the limit and the
	// minimum estimate.
	ErrMemoryBudget = errors.New("memory budget too small")
	// ErrEngineBusy reports a call on an Engine while another
	// Detect/DetectBatch was in flight. Engines serve one run at a
	// time and fail fast rather than queue; callers that want queueing
	// serialize with their own mutex.
	ErrEngineBusy = errors.New("engine busy")
	// ErrEngineClosed reports a call on an Engine after Close, or
	// after a watchdog force-abort destroyed the engine's worker gang
	// (which closes the engine; see Options.StallTimeout).
	ErrEngineClosed = errors.New("engine closed")
)

// Error is the error type returned by Detect, DetectContext and the
// Engine methods. Op names the failing operation ("detect",
// "validate", ...); Err is the underlying cause and always wraps one
// of the package's sentinel errors.
type Error struct {
	// Op is the operation that failed.
	Op string
	// Err is the underlying error.
	Err error
}

func (e *Error) Error() string { return "scc: " + e.Op + ": " + e.Err.Error() }

// Unwrap returns the underlying error for errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// OptionError describes a single invalid Options field. It wraps
// ErrInvalidOption.
type OptionError struct {
	// Field is the Options field name, e.g. "GiantThreshold".
	Field string
	// Value is the rejected value.
	Value any
	// Reason states the constraint that was violated.
	Reason string
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("%v %s: %s = %v", ErrInvalidOption, e.Reason, e.Field, e.Value)
}

// Unwrap makes errors.Is(err, ErrInvalidOption) hold.
func (e *OptionError) Unwrap() error { return ErrInvalidOption }

// PanicError reports a panic captured inside the parallel engine — on
// a gang worker, a work-queue worker, or the coordinating goroutine of
// a kernel. The engine guarantees the panic never crashes the process:
// the round's barrier completes (or is force-abandoned by the
// watchdog), all workers join, the scratch arena is released, and the
// first captured panic surfaces as a *PanicError. Retrieve it with
// errors.As; the zero Comp result of the failed run is discarded.
type PanicError struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
	// Worker is the index of the worker the panic occurred on (0 for
	// panics on the coordinating goroutine).
	Worker int
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("worker %d panicked: %v", e.Worker, e.Value)
}

// Unwrap exposes a panic value that was itself an error (a runtime
// error, an injected chaos failure) to errors.Is / errors.As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// detectErr wraps err in the package's typed error envelope.
func detectErr(op string, err error) error {
	return &Error{Op: op, Err: err}
}

// canceledErr wraps a context error so that both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctxErr) hold.
func canceledErr(op string, ctxErr error) error {
	return &Error{Op: op, Err: fmt.Errorf("%w: %w", ErrCanceled, ctxErr)}
}
