package parallel

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// recoverPanic runs fn and returns the value it panicked with (nil if
// it returned normally).
func recoverPanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestGangPanicBecomesWorkerPanic(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	v := recoverPanic(func() {
		g.Run(func(w int) {
			if w == 2 {
				panic("boom")
			}
		})
	})
	wp, ok := v.(*WorkerPanic)
	if !ok {
		t.Fatalf("Run panicked %v (%T), want *WorkerPanic", v, v)
	}
	if wp.Value != "boom" || wp.Worker != 2 {
		t.Fatalf("got Value=%v Worker=%d, want boom/2", wp.Value, wp.Worker)
	}
	if !bytes.Contains(wp.Stack, []byte("TestGangPanicBecomesWorkerPanic")) {
		t.Fatalf("stack does not reach the panic site:\n%s", wp.Stack)
	}
}

func TestGangReusableAfterPanic(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	if v := recoverPanic(func() { g.Run(func(w int) { panic("first") }) }); v == nil {
		t.Fatal("panicking round did not re-raise")
	}
	// The gang must stay dispatchable: the barrier completed, only the
	// body failed.
	var ran atomic.Int64
	g.Run(func(w int) { ran.Add(1) })
	if got := ran.Load(); got != 4 {
		t.Fatalf("post-panic dispatch ran %d workers, want 4", got)
	}
}

func TestGangFirstPanicWins(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	v := recoverPanic(func() {
		g.Run(func(w int) { panic(w) })
	})
	wp, ok := v.(*WorkerPanic)
	if !ok {
		t.Fatalf("want *WorkerPanic, got %T", v)
	}
	if wp.Value.(int) != wp.Worker {
		t.Fatalf("captured panic value %v does not match its worker %d", wp.Value, wp.Worker)
	}
}

func TestGangAbortReleasesWedgedRun(t *testing.T) {
	g := NewGang(2)
	release := make(chan struct{})
	runDone := make(chan any, 1)
	go func() {
		runDone <- recoverPanic(func() {
			g.Run(func(w int) {
				if w == 1 {
					<-release // wedge one worker mid-round
				}
			})
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the dispatch block on the barrier
	g.Abort()
	select {
	case v := <-runDone:
		if err, ok := v.(error); !ok || !errors.Is(err, ErrBarrierAbandoned) {
			t.Fatalf("aborted Run panicked %v, want ErrBarrierAbandoned", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not release the wedged Run")
	}
	// The gang is dead: a fresh dispatch must refuse immediately.
	if v := recoverPanic(func() { g.Run(func(int) {}) }); !errors.Is(v.(error), ErrBarrierAbandoned) {
		t.Fatalf("post-abort Run panicked %v, want ErrBarrierAbandoned", v)
	}
	close(release) // let the wedged worker goroutine exit
}

func TestGangCloseDuringInflightDispatch(t *testing.T) {
	g := NewGang(4)
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	runDone := make(chan any, 1)
	go func() {
		runDone <- recoverPanic(func() {
			g.Run(func(w int) {
				entered <- struct{}{}
				<-release
			})
		})
	}()
	for i := 0; i < 4; i++ {
		<-entered // all workers are inside the round
	}
	g.Close() // close mid-dispatch: the round must still complete
	close(release)
	select {
	case v := <-runDone:
		if v != nil {
			t.Fatalf("in-flight Run panicked %v after Close, want normal return", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight Run did not complete after Close")
	}
	g.Close() // idempotent
	waitGone(t, func() bool { return true })
}

// waitGone polls until cond holds and the goroutine count settles —
// shared teardown check for the panic-path tests.
func waitGone(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	base := 2 // margin for runtime housekeeping
	start := runtime.NumGoroutine()
	for {
		if cond() && runtime.NumGoroutine() <= start+base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle (%d running)", runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHelpersCapturePanics(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	v := recoverPanic(func() {
		g.ForDynamic(100, 8, func(w, lo, hi int) {
			if lo == 48 {
				panic("h")
			}
		})
	})
	wp, ok := v.(*WorkerPanic)
	if !ok {
		t.Fatalf("ForDynamic panicked %v (%T), want *WorkerPanic", v, v)
	}
	if wp.Value != "h" {
		t.Fatalf("ForDynamic captured %v, want h", wp.Value)
	}
	if wp.Worker < 0 || wp.Worker >= 4 {
		t.Fatalf("captured worker index %d out of range", wp.Worker)
	}
	if !bytes.Contains(wp.Stack, []byte("TestHelpersCapturePanics")) {
		t.Fatalf("stack does not reach the panic site:\n%s", wp.Stack)
	}
}

func TestWorkerPanicUnwrapsErrorValues(t *testing.T) {
	sentinel := errors.New("kernel bug")
	g := NewGang(2)
	defer g.Close()
	v := recoverPanic(func() { g.ForDynamic(100, 8, func(w, lo, hi int) { panic(sentinel) }) })
	err, ok := v.(error)
	if !ok || !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is through WorkerPanic failed: %v", v)
	}
}
