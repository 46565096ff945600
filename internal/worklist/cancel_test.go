package worklist

import (
	"sync/atomic"
	"testing"
)

// TestQueueCancelBeforeRun checks that a Cancel issued before Run
// sticks: no item executes.
func TestQueueCancelBeforeRun(t *testing.T) {
	q := New[int](4, 2)
	q.Seed([]int{1, 2, 3, 4, 5, 6, 7, 8})
	q.Cancel()
	var executed atomic.Int64
	q.Run(func(w, item int) { executed.Add(1) })
	if n := executed.Load(); n != 0 {
		t.Fatalf("pre-canceled queue executed %d items", n)
	}
}

// TestQueueCancelMidRun cancels from inside a task callback and
// checks that Run returns without draining the remaining items.
func TestQueueCancelMidRun(t *testing.T) {
	const items = 10000
	q := New[int](4, 8)
	seed := make([]int, items)
	q.Seed(seed)
	var executed atomic.Int64
	q.Run(func(w, item int) {
		if executed.Add(1) == 1 {
			q.Cancel()
		}
	})
	// In-flight items (up to one batch per worker) may still finish;
	// the bulk of the queue must be abandoned.
	if n := executed.Load(); n == 0 || n >= items {
		t.Fatalf("canceled queue executed %d of %d items", n, items)
	}
}

// TestQueueCancelIdempotent checks repeated Cancel calls are safe.
func TestQueueCancelIdempotent(t *testing.T) {
	q := New[int](2, 1)
	q.Cancel()
	q.Cancel()
	q.Seed([]int{1})
	q.Run(func(w, item int) { t.Error("executed after cancel") })
	q.Cancel()
}
