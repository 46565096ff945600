package worklist

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
)

func recoverPanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestQueueTaskPanicBecomesWorkerPanic(t *testing.T) {
	q := New[int](4, 2)
	q.Seed([]int{1, 2, 3, 4, 5, 6, 7, 8})
	v := recoverPanic(func() {
		runOnGang(q, func(w, item int) {
			if item == 5 {
				panic("task boom")
			}
		})
	})
	wp, ok := v.(*parallel.WorkerPanic)
	if !ok {
		t.Fatalf("Run panicked %v (%T), want *parallel.WorkerPanic", v, v)
	}
	if wp.Value != "task boom" {
		t.Fatalf("captured %v, want task boom", wp.Value)
	}
}

func TestQueuePanicCancelsPeers(t *testing.T) {
	const workers = 2
	q := New[int](workers, 1)
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	q.Seed(items)
	var executed atomic.Int64
	// Items after the panicking one hold until the panic's Cancel has
	// landed: otherwise a peer drains the whole queue whenever the
	// panicking worker is descheduled between its recover and Cancel.
	deadline := time.Now().Add(10 * time.Second)
	recoverPanic(func() {
		runOnGang(q, func(w, item int) {
			n := executed.Add(1)
			if n == 3 {
				panic("early")
			}
			for n > 3 && !q.canceled.Load() && time.Now().Before(deadline) {
				time.Sleep(50 * time.Microsecond)
			}
		})
	})
	// The panic cancels the queue: each peer finishes at most the item
	// it was running, and every other seeded item is skipped.
	if got := executed.Load(); got > 3+workers {
		t.Fatalf("peers kept dispatching after panic: executed %d", got)
	}
}

func TestQueueReusableAfterPanic(t *testing.T) {
	q := New[int](2, 1)
	q.Seed([]int{1})
	recoverPanic(func() { runOnGang(q, func(w, item int) { panic("x") }) })
	// A panic implies Cancel, which is sticky — but the trap must be
	// clear, so a fresh queue-style reuse reports no stale panic.
	if q.Panic() != nil {
		t.Fatal("trap not cleared after rethrow")
	}
}

// TestQueueGangAbortReleasesWedgedRun wedges one task and aborts the
// gang under the queue, as the engine's watchdog does: Run must panic
// ErrBarrierAbandoned, the cancel must stop the worker that is not
// wedged, and once the wedged task returns every gang goroutine exits.
// A one-worker queue is released the same way: its one task runs on
// the gang's goroutine, not on the caller's.
func TestQueueGangAbortReleasesWedgedRun(t *testing.T) {
	for _, workers := range []int{1, 2} {
		base := runtime.NumGoroutine()
		g := parallel.NewGang(workers)
		q := New[int](workers, 1)
		q.Seed([]int{1, 2})
		wedge := make(chan struct{})
		entered := make(chan struct{})
		runDone := make(chan any, 1)
		go func() {
			runDone <- recoverPanic(func() {
				q.Run(g, func(w, item int) {
					if item == 1 {
						close(entered)
						<-wedge
					}
				})
			})
		}()
		<-entered
		g.Abort()
		q.Cancel()
		select {
		case v := <-runDone:
			if err, ok := v.(error); !ok || !errors.Is(err, parallel.ErrBarrierAbandoned) {
				t.Fatalf("workers=%d: aborted Run panicked %v, want ErrBarrierAbandoned", workers, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("workers=%d: gang abort did not release the wedged Run", workers)
		}
		close(wedge)
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: goroutines did not settle: %d running, started with %d", workers, runtime.NumGoroutine(), base)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
