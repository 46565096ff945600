package worklist

// Frontier is a wave-synchronous worklist for the support-pointer trim
// kernel: workers collect newly activated items in private per-worker
// buffers while the current wave is processed, and Advance gathers the
// buffers into the next wave at the barrier. Unlike Queue it runs no
// workers of its own — the caller drives the waves — and it owns no
// storage: Init borrows the wave/spare/next buffers (typically arena
// memory), so steady-state operation allocates nothing beyond growth
// of the borrowed slices.
//
// A worker hands items over once per chunk, never per item: it takes
// its buffer with Pending, appends to that local copy, and stores it
// back with SetPending. The per-worker slice headers sit side by side,
// so a write per item would move their shared cache line between the
// cores on every append.
//
// Concurrency contract: Pending(w) and SetPending(w, ...) may be
// called only by worker w, and only between Advance calls; Advance may
// be called only by the coordinating goroutine with all workers
// quiescent.
type Frontier[T any] struct {
	wave   []T
	spare  []T
	next   [][]T
	pushes int64
}

// Init points the frontier at caller-owned storage: two swap buffers
// (length-reset internally) and one private push buffer per worker.
// The frontier starts empty; seed it with SetPending + Advance.
func (f *Frontier[T]) Init(wave, spare []T, next [][]T) {
	f.wave = wave[:0]
	f.spare = spare[:0]
	f.next = next
	f.pushes = 0
}

// Pending returns worker w's private buffer of items for the next wave.
func (f *Frontier[T]) Pending(w int) []T { return f.next[w] }

// SetPending stores back worker w's buffer, grown from what Pending
// returned.
func (f *Frontier[T]) SetPending(w int, buf []T) { f.next[w] = buf }

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
