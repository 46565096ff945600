package trim

import (
	"slices"
	"sync/atomic"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/scratch"
)

// Peel is the work-efficient replacement for Par: support-pointer
// trimming in the style of Guo & Sekerinski's arc-consistency (AC-6)
// trimming. Instead of rescanning every candidate's full adjacency
// each fixpoint round (O(rounds × edges)), it keeps two support
// pointers per candidate: an alive same-color in-neighbor and
// out-neighbor. A removed node revisits only the neighbors it
// supports; each moves its pointer forward along its sorted adjacency
// list past removed entries, and a pointer that runs off the end of
// its list claims the neighbor (CAS on color, exactly one winner) for
// the next wave. Pointers never move backwards and every node is
// claimed at most once, so each adjacency entry is passed at most once
// per pointer, plus one binary search per pointer move, regardless of
// how deep the trim chains run.
//
// Round 1 is a single greedy in-scan-order cascade round, identical to
// one Par fixpoint iteration: a removal is visible to nodes scanned
// later in the same round, so on favorably ordered inputs (an id-sorted
// citation DAG trims completely in one ascending scan) the cascade
// captures the round-based kernel's best case at the round-based
// kernel's per-node cost. The cascade's scan already stops at each
// survivor's first alive in- and out-neighbor; those are the initial
// support pointers, so no pass ever scans a survivor's full
// adjacency. The cascade's removals then drain once, moving the
// pointers they held, and the survivors they leave unsupported form
// round 2's wave. A node claimed during a wave still counts as a
// support until its own wave drains (see claimed), so every node's
// wave is its peel distance — independent of scan order and worker
// count, and the same waves counter peeling produces.
//
// The contract is Par's: same arguments, same removal semantics (color
// to Removed, comp[v] = v), same arena-owned survivor list, one
// TrimRound event per round (the cascade, then each wave), cancellation
// polled at each wave boundary. Which kernel runs is the engine's
// Options.Kernels choice.
//
// Non-candidate nodes are never claimed: only the cascade's survivors
// carry pointers, and they are flagged in the arena's mark array, so a
// candidate subset behaves exactly like Par's — only candidates are
// removed, and any alive same-color neighbor, candidate or not, is a
// support. Colors other than Removed must be non-negative.
//
// Every round dispatches on the arena's gang at any worker count, but
// at one worker the claims skip the atomics' read-modify-writes: with
// no concurrent claimer, the claim CAS degrades to a plain store and
// the pointer update to a plain write.
func Peel(sink *events.Sink, g *graph.Graph, color, comp []int32, candidates []graph.NodeID, ar *scratch.Arena) (Result, []graph.NodeID) {
	ownCandidates := false
	if candidates == nil {
		candidates = allCandidates(g, ar)
		ownCandidates = true
	}
	ctr := ar.Counters()
	k := begin(g, color, comp, ar)
	k.ps = ar.Peel(g.NumNodes())

	res := Result{Rounds: 1}
	// The cascade writes its survivors to the front of casc and its
	// removals to the back, so the first drain needs no buffer of its
	// own.
	casc := slices.Grow(ar.GetNodes(len(candidates)), len(candidates))
	live := casc[:0]
	var dropped int64
	if sink.Err() == nil {
		live, dropped = k.scan(ar, candidates, casc, (*kernel).cascadeChunk)
		res.Removed += dropped
		res.SCCs += dropped
		ctr.AddTrimRound(dropped)
		sink.Emit(events.Event{Type: events.TrimRound, Round: 1, Nodes: dropped})
	}
	// A cascade that removed nothing already reached the fixpoint — it
	// is exactly one Par round — so the kernel matches the round-based
	// one's single-scan cost on partitions that have nothing to trim
	// (every recursion step on a dense giant SCC). A cascade that
	// removed everything leaves no pointer to move.
	if dropped > 0 && len(live) > 0 && sink.Err() == nil {
		k.waves(sink, casc[len(candidates)-int(dropped):len(candidates)], len(live), &res, ar)
	}

	// Survivors, and the mark-clearing that upholds the arena's
	// all-zero-between-invocations contract. Runs on every exit path,
	// including cancellation. Marks are only ever set for cascade
	// survivors, so filtering live in place (writes trail reads) yields
	// the survivor list without another buffer; a canceled run may have
	// skipped the cascade, so it scans the full candidate list instead.
	src := live
	if sink.Err() != nil {
		src = candidates
	}
	out := casc[:0]
	for _, v := range src {
		k.ps.Marks[v] = 0
		if atomic.LoadInt32(&color[v]) != Removed {
			out = append(out, v)
		}
	}
	k.end()
	if ownCandidates {
		ar.PutNodes(candidates)
	}
	return res, out
}

// waves drains the cascade's removals, then wave after wave of the
// survivors they leave unsupported, until no pointer runs out. Waves
// after the first are claimed from the cascade's live survivors, so
// the frontier's swap buffers are sized by them.
func (k *kernel) waves(sink *events.Sink, wave []graph.NodeID, live int, res *Result, ar *scratch.Arena) {
	ctr := ar.Counters()
	fr := &k.fr
	fr.Init(ar.GetNodes(live), ar.GetNodes(live), ar.GetLists())
	pushed := int64(len(wave))
	for first := true; ; first = false {
		// Dynamic chunks: a wave node's cost is its degree, which is
		// heavily skewed on scale-free graphs. A wave of one chunk —
		// deep-chain peeling produces thousands of two-node waves —
		// drains inline on the coordinator, where a gang dispatch
		// would cost more in barriers than the drain itself.
		k.dispatch(ar, wave, 64, (*kernel).drainChunk)
		if !first {
			rm := int64(len(wave))
			res.Removed += rm
			res.SCCs += rm
			ctr.AddPeelWave(rm)
			sink.Emit(events.Event{Type: events.TrimRound, Round: res.Rounds, Nodes: rm})
		}
		wave = fr.Advance()
		// The wave's drain is about to start: its nodes stop counting
		// as supports.
		for _, v := range wave {
			k.color[v] = Removed
		}
		if len(wave) == 0 || sink.Err() != nil {
			break
		}
		res.Rounds++
	}
	ctr.AddTrimPushes(pushed + fr.Pushes())
	a, b, lists := fr.Buffers()
	ar.PutNodes(a)
	ar.PutNodes(b)
	ar.PutLists(lists)
}

// cascadeChunk is the cascade round's body over nodes[lo:hi]; its
// first chunk hits the trim site. Each scanChunk nodes gather their
// survivors and removals in a stack buffer, which keep and one more
// atomic add place at the two ends of out.
func (k *kernel) cascadeChunk(w, lo, hi int) {
	if lo == 0 {
		k.inj.Hit(chaos.SiteTrim)
	}
	var buf [scanChunk]graph.NodeID
	for ; lo < hi; lo += scanChunk {
		kept, d := peelCascadeRange(k.g, k.color, k.comp, k.ps, k.nodes[lo:min(lo+scanChunk, hi)], buf[:], k.single)
		k.keep(buf[:kept])
		copy(k.out[len(k.out)-int(atomic.AddInt64(&k.removed, int64(d))):], buf[scanChunk-d:])
	}
}

// peelCascadeRange runs the cascade round over active with trimRange's
// semantics (removals visible to later nodes in the same scan),
// writing survivors to the front of out and removals to its back, and
// returns how many of each; len(out) >= len(active). A survivor's
// supports are the neighbors its two scans stopped at. single claims
// with a plain store: no concurrent claimer exists.
func peelCascadeRange(g *graph.Graph, color, comp []int32, ps scratch.PeelScratch, active, out []graph.NodeID, single bool) (kept, dropped int) {
	for _, v := range active {
		c := atomic.LoadInt32(&color[v])
		if c == Removed {
			continue
		}
		ins, outs := g.In(v), g.Out(v)
		in, o := support(ins, color, v, c, 0), -1
		if in >= 0 {
			o = support(outs, color, v, c, 0)
		}
		if o < 0 {
			if single {
				color[v] = Removed
			} else if !atomic.CompareAndSwapInt32(&color[v], c, Removed) {
				continue
			}
			comp[v] = int32(v)
			ps.Orig[v] = c
			dropped++
			out[len(out)-dropped] = v
			continue
		}
		ps.SupIn[v], ps.SupOut[v] = ins[in], outs[o]
		ps.Marks[v] = 1
		out[kept] = v
		kept++
	}
	return kept, dropped
}

// drainChunk drains nodes[lo:hi] of a wave into the worker's pending
// buffer; every chunk hits the peel site.
func (k *kernel) drainChunk(w, lo, hi int) {
	k.inj.Hit(chaos.SitePeel)
	k.fr.SetPending(w, peelDrainRange(k.g, k.color, k.comp, k.ps, k.nodes[lo:hi], k.fr.Pending(w), k.single))
}

// peelDrainRange drains removed nodes: each revisits the marked
// same-color neighbors it supports, and a neighbor it leaves
// unsupported in either direction is claimed and appended to next, the
// draining worker's pending buffer for the next wave. It returns next
// for the caller to hand back to the frontier once per chunk. The
// support test comes first: it is one load per neighbor and rarely
// passes, while a stale pointer of an unmarked or removed neighbor
// fails the tests after it.
func peelDrainRange(g *graph.Graph, color, comp []int32, ps scratch.PeelScratch, wave, next []graph.NodeID,
	single bool) []graph.NodeID {
	for _, v := range wave {
		c := ps.Orig[v]
		for _, k := range g.Out(v) {
			if k != v && atomic.LoadInt32(&ps.SupIn[k]) == v && ps.Marks[k] != 0 &&
				atomic.LoadInt32(&color[k]) == c && release(g.In(k), &ps.SupIn[k], color, k, v, c, single) {
				comp[k] = int32(k)
				ps.Orig[k] = c
				next = append(next, k)
			}
		}
		for _, k := range g.In(v) {
			if k != v && atomic.LoadInt32(&ps.SupOut[k]) == v && ps.Marks[k] != 0 &&
				atomic.LoadInt32(&color[k]) == c && release(g.Out(k), &ps.SupOut[k], color, k, v, c, single) {
				comp[k] = int32(k)
				ps.Orig[k] = c
				next = append(next, k)
			}
		}
	}
	return next
}

// release moves k's support pointer *sup off v, its departing support
// in adj, k's sorted adjacency list (color c), and reports whether it
// claimed k. The pointer moves forward from v's position (a binary
// search away) to the next entry that still supports k; when none is
// left, k is claimed for the next wave (CAS on color, exactly one
// winner). Only the worker draining k's support writes *sup in a
// wave: the next support is not in the wave being drained, so no other
// wave node matches it.
func release(adj []graph.NodeID, sup *int32, color []int32, k, v graph.NodeID, c int32, single bool) bool {
	p, _ := slices.BinarySearch(adj, v)
	cl := claimed(c)
	for _, u := range adj[p+1:] {
		if u == k {
			continue
		}
		if x := atomic.LoadInt32(&color[u]); x == c || x == cl {
			if single {
				*sup = u
			} else {
				atomic.StoreInt32(sup, u)
			}
			return false
		}
	}
	if single {
		color[k] = cl
		return true
	}
	return atomic.CompareAndSwapInt32(&color[k], c, cl)
}

// claimed is the color a drain gives a node it claims, until the
// node's own wave starts draining and settles it to Removed. It
// differs from every color and from Removed, so the node is neither
// claimed again nor revisited as a neighbor, but pointer moves still
// stop at it: a node leaves its neighbors' lists when its own wave
// drains, not when it is claimed, which keeps each node's wave equal
// to its peel distance.
func claimed(c int32) int32 { return -2 - c }
