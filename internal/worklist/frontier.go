package worklist

// Frontier is a wave-synchronous worklist for the support-pointer trim
// kernel: workers Push newly activated items onto private per-worker
// buffers while the current wave is processed, and Advance gathers the
// buffers into the next wave at the barrier. Unlike Queue it runs no
// workers of its own — the caller drives the waves — and it owns no
// storage: Init borrows the wave/spare/next buffers (typically arena
// memory), so steady-state operation allocates nothing beyond growth
// of the borrowed slices.
//
// Concurrency contract: Push(w, ...) may be called only by worker w,
// and only between Advance calls; Advance may be called only by the
// coordinating goroutine with all workers quiescent.
type Frontier[T any] struct {
	wave   []T
	spare  []T
	next   [][]T
	pushes int64
}

// Init points the frontier at caller-owned storage: two swap buffers
// (length-reset internally) and one private push buffer per worker.
// The frontier starts empty; seed it with Push + Advance.
func (f *Frontier[T]) Init(wave, spare []T, next [][]T) {
	f.wave = wave[:0]
	f.spare = spare[:0]
	f.next = next
	f.pushes = 0
}

// Push appends an item to worker w's private buffer for the next wave.
func (f *Frontier[T]) Push(w int, v T) {
	f.next[w] = append(f.next[w], v)
}

// Advance gathers every worker's pushed items into the next wave and
// returns it; an empty return means the worklist is drained. The
// previous wave's storage becomes the gather target of the wave after
// next.
func (f *Frontier[T]) Advance() []T {
	f.wave, f.spare = f.spare[:0], f.wave
	for w := range f.next {
		f.wave = append(f.wave, f.next[w]...)
		f.pushes += int64(len(f.next[w]))
		f.next[w] = f.next[w][:0]
	}
	return f.wave
}

// Pushes is the total number of items gathered by Advance so far.
func (f *Frontier[T]) Pushes() int64 { return f.pushes }

// Buffers hands back the borrowed storage (the two swap buffers and
// the per-worker set) so the caller can release it to its pool.
func (f *Frontier[T]) Buffers() (a, b []T, next [][]T) {
	return f.wave, f.spare, f.next
}
