package parallel

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// coverage counts how many times a gang of the given size's
// ForDynamic visits each index of [0, n).
func coverage(workers, n, chunk int) []int32 {
	g := NewGang(workers)
	defer g.Close()
	counts := make([]int32, n)
	g.ForDynamic(n, chunk, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
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

func TestForDynamicVisitsExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, chunk := range []int{0, 1, 3, 64} {
			for _, n := range []int{0, 1, 63, 64, 65, 999} {
				checkExactlyOnce(t, coverage(workers, n, chunk))
			}
		}
	}
}

// Property: Gang.ForDynamic computes the same sum as a serial loop
// for arbitrary n, gang size and chunk.
func TestQuickSchedulesEquivalent(t *testing.T) {
	f := func(nRaw, workersRaw, chunkRaw uint16) bool {
		n := int(nRaw % 2000)
		workers := int(workersRaw%8) + 1
		chunk := int(chunkRaw%100) + 1
		g := NewGang(workers)
		defer g.Close()
		var got atomic.Int64
		g.ForDynamic(n, chunk, func(w, lo, hi int) {
			for i := lo; i < hi; i++ {
				got.Add(int64(i) * 3)
			}
		})
		return got.Load() == 3*int64(n)*int64(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
