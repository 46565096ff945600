package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestGangRunsEveryWorker(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	var seen [4]atomic.Int64
	for round := 0; round < 50; round++ {
		g.Run(func(w int) { seen[w].Add(1) })
	}
	for w := range seen {
		if got := seen[w].Load(); got != 50 {
			t.Fatalf("worker %d ran %d times, want 50", w, got)
		}
	}
}

func TestGangForDynamicCoversRange(t *testing.T) {
	g := NewGang(3)
	defer g.Close()
	const n = 10_000
	hits := make([]atomic.Int32, n)
	for round := 0; round < 10; round++ {
		g.ForDynamic(n, 64, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
	}
	for i := range hits {
		if got := hits[i].Load(); got != 10 {
			t.Fatalf("index %d covered %d times, want 10", i, got)
		}
	}
}

func TestGangSmallInputRunsInline(t *testing.T) {
	g := NewGang(4)
	defer g.Close()
	var count int // no synchronization: must run on the caller goroutine
	g.ForDynamic(10, 64, func(w, lo, hi int) {
		if w != 0 || lo != 0 || hi != 10 {
			t.Errorf("inline dispatch got (w=%d, lo=%d, hi=%d)", w, lo, hi)
		}
		count += hi - lo
	})
	if count != 10 {
		t.Fatalf("covered %d, want 10", count)
	}
}

func TestGangCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGang(8)
	g.Run(func(int) {})
	g.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: before=%d now=%d", before, runtime.NumGoroutine())
}

func TestGangCloseIdempotent(t *testing.T) {
	g := NewGang(2)
	g.Close()
	g.Close()
}

// TestGangForDynamicSteadyStateAllocs pins that a dispatch allocates
// nothing of its own: with its body built once, a warm two-worker
// ForDynamic that runs on the gang performs no heap allocations.
func TestGangForDynamicSteadyStateAllocs(t *testing.T) {
	g := NewGang(2)
	defer g.Close()
	const n = 1000
	var covered atomic.Int64
	body := func(_, lo, hi int) { covered.Add(int64(hi - lo)) }
	dispatch := func() { g.ForDynamic(n, 64, body) }
	dispatch()
	if avg := testing.AllocsPerRun(100, dispatch); avg != 0 {
		t.Fatalf("ForDynamic allocates %.2f objects/dispatch in steady state, want 0", avg)
	}
	if got := covered.Load(); got != 102*n {
		t.Fatalf("covered %d indices over 102 dispatches, want %d", got, 102*n)
	}
}
