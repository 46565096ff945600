package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
)

// WorkerPanic records a panic captured on a parallel worker: the
// recovered value, the worker's stack at the point of the panic, and
// the worker index it occurred on. Gang.Run re-raises the first
// captured panic as a *WorkerPanic on the coordinating goroutine once
// the barrier completes, so a panic inside a parallel region unwinds
// the caller exactly like a panic in sequential code — but with the
// worker's stack preserved and without tearing down sibling workers
// mid-write.
type WorkerPanic struct {
	// Value is the value the worker panicked with.
	Value any
	// Stack is the panicking worker's stack trace.
	Stack []byte
	// Worker is the index of the worker the panic occurred on.
	Worker int
}

// Error implements error so a *WorkerPanic recovered by a caller can
// flow through error-returning paths unchanged.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker %d panicked: %v", p.Worker, p.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. a
// runtime error such as an index-out-of-range) to errors.Is/As.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// ErrBarrierAbandoned is the value panicked by Gang.Run when Abort
// releases a dispatch whose workers have not all returned: the barrier
// was abandoned rather than completed, so the gang (and any scratch
// state its workers were writing) must not be reused. Callers that
// recover it should treat the run as force-aborted (stall/cancel) and
// discard the gang.
var ErrBarrierAbandoned = errors.New("parallel: barrier abandoned by abort")

// Trap is a one-shot first-panic-wins slot shared by the workers of
// one parallel region: the Gang's barrier rounds and the work queue's
// runs both capture into one. The zero value is ready to use.
type Trap struct {
	p atomic.Pointer[WorkerPanic]
}

// Capture records a recovered panic value v for worker w if the trap
// is still empty. It must be called from the panicking goroutine
// (typically inside a deferred recover) so the recorded stack is the
// panicking worker's.
func (t *Trap) Capture(w int, v any) {
	wp := &WorkerPanic{Value: v, Stack: stack(), Worker: w}
	t.p.CompareAndSwap(nil, wp)
}

// Panic returns the captured panic, or nil if none was captured.
func (t *Trap) Panic() *WorkerPanic {
	return t.p.Load()
}

// Rethrow re-raises the captured panic, if any, on the calling
// goroutine, clearing the trap so the owning gang or queue stays
// reusable for subsequent dispatches. No-op on an empty trap.
func (t *Trap) Rethrow() {
	if wp := t.p.Swap(nil); wp != nil {
		panic(wp)
	}
}

// stack returns the current goroutine's stack, growing the buffer
// until it fits.
func stack() []byte {
	buf := make([]byte, 4096)
	for {
		n := runtime.Stack(buf, false)
		if n < len(buf) {
			return buf[:n]
		}
		buf = make([]byte, 2*len(buf))
	}
}
