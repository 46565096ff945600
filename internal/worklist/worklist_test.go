package worklist

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// runOnGang runs q on a fresh gang of the queue's size, closing the
// gang afterwards (also when Run panics).
func runOnGang[T any](q *Queue[T], fn func(worker int, item T)) {
	g := parallel.NewGang(q.Workers())
	defer g.Close()
	q.Run(g, fn)
}

func TestDrainsSeededItems(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, k := range []int{1, 4, 8} {
			q := New[int](workers, k)
			items := make([]int, 100)
			for i := range items {
				items[i] = i
			}
			q.Seed(items)
			var sum atomic.Int64
			runOnGang(q, func(_ int, item int) { sum.Add(int64(item)) })
			if sum.Load() != 99*100/2 {
				t.Fatalf("workers=%d k=%d: sum = %d", workers, k, sum.Load())
			}
			st := q.Stats()
			if st.Total != 100 || st.Executed != 100 {
				t.Fatalf("stats: %+v", st)
			}
		}
	}
}

func TestEmptyRunTerminates(t *testing.T) {
	q := New[int](4, 2)
	ran := false
	runOnGang(q, func(int, int) { ran = true })
	if ran {
		t.Fatal("fn ran with empty queue")
	}
}

func TestRecursiveSpawning(t *testing.T) {
	// Each task for value v > 0 spawns tasks v-1 and v-1: total
	// executions for seed n is 2^(n+1)-1.
	for _, workers := range []int{1, 3, 8} {
		q := New[int](workers, 2)
		q.Seed([]int{10})
		var count atomic.Int64
		runOnGang(q, func(w int, v int) {
			count.Add(1)
			if v > 0 {
				q.Push(w, v-1)
				q.Push(w, v-1)
			}
		})
		want := int64(1<<11 - 1)
		if count.Load() != want {
			t.Fatalf("workers=%d: executed %d, want %d", workers, count.Load(), want)
		}
	}
}

func TestEveryItemExecutedExactlyOnce(t *testing.T) {
	const n = 5000
	q := New[int](8, 4)
	items := make([]int, n)
	for i := range items {
		items[i] = i
	}
	q.Seed(items)
	counts := make([]int32, n)
	runOnGang(q, func(_ int, item int) {
		atomic.AddInt32(&counts[item], 1)
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("item %d executed %d times", i, c)
		}
	}
}

func TestPeakReadyTracksDepth(t *testing.T) {
	// Seeding 50 items at once must record a peak of at least 50.
	q := New[int](2, 1)
	q.Seed(make([]int, 50))
	runOnGang(q, func(int, int) {})
	if st := q.Stats(); st.PeakReady < 50 {
		t.Fatalf("PeakReady = %d, want >= 50", st.PeakReady)
	}
}

func TestSerializedChainHasLowPeak(t *testing.T) {
	// A chain where each task spawns exactly one successor never has
	// more than a couple of ready tasks — the §3.3 starvation signature.
	q := New[int](4, 1)
	q.Seed([]int{1000})
	runOnGang(q, func(w int, v int) {
		if v > 0 {
			q.Push(w, v-1)
		}
	})
	if st := q.Stats(); st.PeakReady > 2 {
		t.Fatalf("PeakReady = %d, want <= 2 for a serial chain", st.PeakReady)
	}
}

func TestLocalOverflowSpills(t *testing.T) {
	// With k=2, pushing 5 items from one task must spill to global so a
	// second worker can steal; verify all run even if the pushing worker
	// then goes idle.
	q := New[int](2, 2)
	q.Seed([]int{-1})
	var count atomic.Int64
	var workersSeen sync.Map
	runOnGang(q, func(w int, v int) {
		workersSeen.Store(w, true)
		count.Add(1)
		if v == -1 {
			for i := 0; i < 64; i++ {
				q.Push(w, i)
			}
		}
	})
	if count.Load() != 65 {
		t.Fatalf("executed %d, want 65", count.Load())
	}
}

func TestReuseAfterRun(t *testing.T) {
	q := New[int](2, 2)
	q.Seed([]int{1, 2, 3})
	var a atomic.Int64
	runOnGang(q, func(_ int, v int) { a.Add(int64(v)) })
	q.Seed([]int{4, 5})
	runOnGang(q, func(_ int, v int) { a.Add(int64(v)) })
	if a.Load() != 15 {
		t.Fatalf("sum = %d, want 15", a.Load())
	}
	if st := q.Stats(); st.Total != 5 || st.Executed != 5 {
		t.Fatalf("stats after reuse: %+v", st)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { New[int](0, 1) },
		func() { New[int](1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("New accepted bad args")
				}
			}()
			fn()
		}()
	}
}

func TestHighContentionStress(t *testing.T) {
	// Many workers, tiny K, fan-out tasks: exercises spill/steal under
	// contention. Run under -race in CI.
	q := New[uint32](8, 1)
	q.Seed([]uint32{16})
	var count atomic.Int64
	runOnGang(q, func(w int, v uint32) {
		count.Add(1)
		if v > 0 {
			q.Push(w, v-1)
			if v%2 == 0 {
				q.Push(w, v-1)
			}
		}
	})
	if count.Load() < 16 {
		t.Fatalf("executed %d, want >= 16", count.Load())
	}
	if st := q.Stats(); st.Executed != count.Load() {
		t.Fatalf("Executed stat %d != observed %d", st.Executed, count.Load())
	}
}

// TestQueueRunSteadyStateAllocs pins the zero-allocation contract of
// a warm queue run on a gang: the gang body is bound once per queue,
// the local queues are preallocated, and the global queue keeps its
// grown capacity across Reset, so neither seeding, spilling nor the
// dispatch itself allocates.
func TestQueueRunSteadyStateAllocs(t *testing.T) {
	g := parallel.NewGang(2)
	defer g.Close()
	q := New[int](2, 2)
	seeds := []int{6, 6, 6, 6}
	fn := func(w int, v int) {
		if v > 0 {
			q.Push(w, v-1)
			q.Push(w, v-1)
		}
	}
	run := func() {
		q.Reset()
		q.Seed(seeds)
		q.Run(g, fn)
	}
	run() // grow the global queue to its high-water mark
	run()
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("Queue.Run allocates %.2f objects/run in steady state, want 0", avg)
	}
}

func BenchmarkQueueThroughput(b *testing.B) {
	g := parallel.NewGang(4)
	defer g.Close()
	q := New[int](4, 8)
	items := make([]int, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Seed(items)
		q.Run(g, func(int, int) {})
	}
}
