package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// coverage returns a slice counting how many times each index was
// visited by the given looping construct.
func coverage(n int, loop func(body func(i int))) []int32 {
	counts := make([]int32, n)
	loop(func(i int) {
		atomic.AddInt32(&counts[i], 1)
	})
	return counts
}

func checkExactlyOnce(t *testing.T, counts []int32) {
	t.Helper()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, c)
		}
	}
}

func TestForVisitsExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 2, 15, 1000} {
			counts := coverage(n, func(body func(int)) { For(workers, n, body) })
			checkExactlyOnce(t, counts)
		}
	}
}

func TestForDynamicVisitsExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{0, 1, 3, 64} {
			for _, n := range []int{0, 1, 63, 64, 65, 999} {
				counts := coverage(n, func(body func(int)) {
					ForDynamic(workers, n, chunk, body)
				})
				checkExactlyOnce(t, counts)
			}
		}
	}
}

func TestForRangePartition(t *testing.T) {
	// Ranges must be disjoint, contiguous, and cover [0, n).
	for _, workers := range []int{1, 3, 8} {
		n := 100
		counts := make([]int32, n)
		ForRange(workers, n, func(lo, hi int) {
			if lo > hi {
				t.Errorf("lo %d > hi %d", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&counts[i], 1)
			}
		})
		checkExactlyOnce(t, counts)
	}
}

func TestForRangeWorkerIndices(t *testing.T) {
	workers := 4
	seen := make([]int32, workers)
	ForRangeWorker(workers, 1000, func(w, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker index %d out of range", w)
		}
		atomic.AddInt32(&seen[w], int32(hi-lo))
	})
	var total int32
	for _, s := range seen {
		total += s
	}
	if total != 1000 {
		t.Fatalf("total iterations %d, want 1000", total)
	}
}

func TestForDynamicWorkerCoverage(t *testing.T) {
	n := 777
	counts := make([]int32, n)
	ForDynamicWorker(3, n, 10, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	checkExactlyOnce(t, counts)
}

func TestReduceInt64Sum(t *testing.T) {
	n := 10000
	got := ReduceInt64(4, n, func(i int, acc *int64) { *acc += int64(i) })
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("ReduceInt64 = %d, want %d", got, want)
	}
}

func TestReduceInt64Empty(t *testing.T) {
	if got := ReduceInt64(4, 0, func(int, *int64) {}); got != 0 {
		t.Fatalf("ReduceInt64 over empty range = %d, want 0", got)
	}
}

func TestZeroWorkersDefaults(t *testing.T) {
	counts := coverage(100, func(body func(int)) { For(0, 100, body) })
	checkExactlyOnce(t, counts)
	counts = coverage(100, func(body func(int)) { ForDynamic(-1, 100, 7, body) })
	checkExactlyOnce(t, counts)
}

// Property: For and ForDynamic compute the same sum as a serial loop
// for arbitrary n, workers, chunk.
func TestQuickSchedulesEquivalent(t *testing.T) {
	f := func(nRaw, workersRaw, chunkRaw uint16) bool {
		n := int(nRaw % 2000)
		workers := int(workersRaw%8) + 1
		chunk := int(chunkRaw%100) + 1
		var a, b atomic.Int64
		For(workers, n, func(i int) { a.Add(int64(i) * 3) })
		ForDynamic(workers, n, chunk, func(i int) { b.Add(int64(i) * 3) })
		return a.Load() == b.Load()
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkForStatic(b *testing.B) {
	sink := make([]int64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(4, len(sink), func(j int) { sink[j]++ })
	}
}

func BenchmarkForDynamic(b *testing.B) {
	sink := make([]int64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForDynamic(4, len(sink), 1024, func(j int) { sink[j]++ })
	}
}
