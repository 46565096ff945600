package trim

import (
	"sync/atomic"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/parallel"
	"repro/internal/scratch"
	"repro/internal/worklist"
)

// Peel is the work-efficient replacement for Par: counter-peeling trim
// in the style of Guo & Sekerinski's arc-consistency trimming. Instead
// of rescanning every candidate's full adjacency each fixpoint round
// (O(rounds × edges)), it computes each candidate's alive same-color
// in/out degrees once, seeds a frontier with the zero-degree nodes,
// and peels: removing a node atomically decrements its same-color
// neighbors' counters, and a counter hitting zero claims the neighbor
// and pushes it onto the frontier. Every node is claimed at most once
// and every edge is traversed a constant number of times, so total
// work is O(N+M) regardless of how deep the trim chains run.
//
// Round 1 is a single greedy in-scan-order cascade round, identical to
// one Par fixpoint iteration: a removal is visible to nodes scanned
// later in the same round, so on favorably ordered inputs (an id-sorted
// citation DAG trims completely in one ascending scan) the cascade
// captures the round-based kernel's best case at the round-based
// kernel's per-node cost — one degree scan, no counter maintenance.
// The counters are then computed only over the cascade's survivors,
// preserving the O(N+M) bound when the ordering is adversarial.
//
// The contract is Par's: same arguments, same removal semantics (CAS
// on color to Removed, comp[v] = v), same arena-owned survivor list,
// one TrimRound event per round (the cascade, then each wave),
// cancellation polled at each wave boundary. Which kernel runs is the
// engine's Options.Kernels choice.
//
// Non-candidate nodes are never decremented or claimed: candidacy is
// tracked in the arena's mark array, so a candidate subset behaves
// exactly like Par's — only candidates are removed, and degrees count
// all alive same-color neighbors, candidate or not.
//
// Single-worker invocations run atomics-free specializations of every
// pass: with no concurrent claimers, the claim CAS degrades to a plain
// store and the counter decrement to a plain decrement, which matters —
// a LOCK-prefixed read-modify-write per alive edge is the dominant
// cost of the drain, not the cache misses.
func Peel(sink *events.Sink, g *graph.Graph, workers int, color, comp []int32, candidates []graph.NodeID, ar *scratch.Arena) (Result, []graph.NodeID) {
	ownCandidates := false
	if candidates == nil {
		candidates = allCandidates(g, ar)
		ownCandidates = true
	}
	if workers < 1 {
		workers = parallel.DefaultWorkers()
	}
	ctr := ar.Counters()
	ps := ar.Peel(g.NumNodes())
	fr := ar.Frontier()

	res := Result{Rounds: 1}
	single := workers == 1
	inj := ar.Chaos()
	casc := ar.GetNodes(len(candidates))
	var cascRemoved int64
	if sink.Err() == nil {
		// Round 1: the greedy cascade. One Par-style scan where removals
		// are visible to later nodes in the same scan; survivors land in
		// casc and are the only nodes the counters are built for.
		if single {
			ar.Chaos().Hit(chaos.SiteTrim)
			cascRemoved = peelCascadeRange(g, color, comp, candidates, &casc)
		} else {
			bufs := ar.GetLists(workers)
			counts := ar.Counts(workers)
			cascRemoved = trimRoundPar(g, workers, color, comp, candidates, &casc, bufs, counts, ar)
			ar.PutLists(bufs)
		}
		res.Removed += cascRemoved
		res.SCCs += cascRemoved
		ctr.AddTrimRound(cascRemoved)
		sink.Emit(events.Event{Type: events.TrimRound, Round: 1, Nodes: cascRemoved})
	}
	live := casc
	// A cascade that removed nothing already reached the fixpoint — it
	// is exactly one Par round, and with no removals no counter can
	// ever reach zero — so counting is skipped and the kernel matches
	// the round-based one's single-scan cost on partitions that have
	// nothing to trim (every recursion step on a dense giant SCC). A
	// cascade that removed everything leaves nothing to count or peel.
	if cascRemoved > 0 && len(live) > 0 && sink.Err() == nil {
		// The frontier only ever holds cascade survivors, so its swap
		// buffers are sized by them.
		bufA := ar.GetNodes(len(live))
		bufB := ar.GetNodes(len(live))
		next := ar.GetLists(workers)
		fr.Init(bufA, bufB, next)
		// Counting pass: one scan computes every surviving candidate's
		// alive-degree counters and marks it as a candidate. Colors are
		// not mutated here, so the counts are exact. Seeding is a
		// separate pass: claiming during the count would double-discount
		// a seed (skipped by the count, then decremented again when its
		// wave drains).
		if single {
			peelCountRange(g, color, ps, live, 0, len(live))
			peelSeedRangeST(color, comp, ps, live, 0, len(live), fr)
		} else {
			ar.ForDynamic(workers, len(live), 128, func(w, lo, hi int) {
				peelCountRange(g, color, ps, live, lo, hi)
			})
			ar.ForDynamic(workers, len(live), 128, func(w, lo, hi int) {
				peelSeedRange(color, comp, ps, live, lo, hi, fr, w)
			})
		}

		for {
			wave := fr.Advance()
			if len(wave) == 0 || sink.Err() != nil {
				break
			}
			res.Rounds++
			if single {
				ar.Chaos().Hit(chaos.SitePeel)
				peelDrainRangeST(g, color, comp, ps, wave, 0, len(wave), fr)
			} else if len(wave) <= 64 {
				// Tiny waves (deep-chain peeling produces thousands of them)
				// drain on the coordinator: a gang dispatch per two-node wave
				// would cost more in barriers than the drain itself.
				ar.Chaos().Hit(chaos.SitePeel)
				peelDrainRange(g, color, comp, ps, wave, 0, len(wave), fr, 0)
			} else {
				// Dynamic chunks: a wave node's cost is its degree, which is
				// heavily skewed on scale-free graphs.
				ar.ForDynamic(workers, len(wave), 64, func(w, lo, hi int) {
					inj.Hit(chaos.SitePeel)
					peelDrainRange(g, color, comp, ps, wave, lo, hi, fr, w)
				})
			}
			rm := int64(len(wave))
			res.Removed += rm
			res.SCCs += rm
			ctr.AddPeelWave(rm)
			sink.Emit(events.Event{Type: events.TrimRound, Round: res.Rounds, Nodes: rm})
		}
		ctr.AddTrimPushes(fr.Pushes())
		a, b, lists := fr.Buffers()
		ar.PutNodes(a)
		ar.PutNodes(b)
		ar.PutLists(lists)
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
		ps.Marks[v] = 0
		if atomic.LoadInt32(&color[v]) != Removed {
			out = append(out, v)
		}
	}
	if ownCandidates {
		ar.PutNodes(candidates)
	}
	return res, out
}

// peelCascadeRange is the single-worker cascade round: trimRange's
// semantics (removals visible to later nodes in the same scan) without
// its atomics — no concurrent claimer exists, so the claim is a plain
// store.
func peelCascadeRange(g *graph.Graph, color, comp []int32, active []graph.NodeID, buf *[]graph.NodeID) int64 {
	removed := int64(0)
	for _, v := range active {
		c := color[v]
		if c == Removed {
			continue
		}
		if trimmable(g, color, v, c) {
			color[v] = Removed
			comp[v] = int32(v)
			removed++
			continue
		}
		*buf = append(*buf, v)
	}
	return removed
}

// peelCountRange computes the alive same-color degree counters for the
// alive nodes of candidates[lo:hi] and marks them as candidates. Plain
// function (not a closure) so the single-worker path allocates
// nothing.
func peelCountRange(g *graph.Graph, color []int32, ps scratch.PeelScratch, candidates []graph.NodeID, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := candidates[i]
		c := atomic.LoadInt32(&color[v])
		if c == Removed {
			continue
		}
		in, out := aliveDegrees(g, color, v, c)
		ps.DegIn[v] = int32(in)
		ps.DegOut[v] = int32(out)
		ps.Marks[v] = 1
	}
}

// peelSeedRange claims the marked candidates of candidates[lo:hi]
// whose in- or out-counter is already zero and pushes them onto worker
// w's frontier buffer.
func peelSeedRange(color, comp []int32, ps scratch.PeelScratch, candidates []graph.NodeID, lo, hi int, fr *worklist.Frontier[graph.NodeID], w int) {
	for i := lo; i < hi; i++ {
		v := candidates[i]
		if ps.Marks[v] == 0 || (ps.DegIn[v] != 0 && ps.DegOut[v] != 0) {
			continue
		}
		c := atomic.LoadInt32(&color[v])
		if c == Removed {
			continue
		}
		if atomic.CompareAndSwapInt32(&color[v], c, Removed) {
			comp[v] = int32(v)
			ps.Orig[v] = c
			fr.Push(w, v)
		}
	}
}

// peelSeedRangeST is peelSeedRange for the single-worker path: no
// competing claimer, so the CAS degrades to a plain store.
func peelSeedRangeST(color, comp []int32, ps scratch.PeelScratch, candidates []graph.NodeID, lo, hi int, fr *worklist.Frontier[graph.NodeID]) {
	for i := lo; i < hi; i++ {
		v := candidates[i]
		if ps.Marks[v] == 0 || (ps.DegIn[v] != 0 && ps.DegOut[v] != 0) {
			continue
		}
		c := color[v]
		if c == Removed {
			continue
		}
		color[v] = Removed
		comp[v] = int32(v)
		ps.Orig[v] = c
		fr.Push(0, v)
	}
}

// peelDrainRangeST is peelDrainRange for the single-worker path. The
// plain decrement is the point: the multi-worker drain's LOCK-prefixed
// add per alive edge dominates its profile, and a lone worker needs
// none of it. A node claimed through one counter is skipped by the
// other direction's color check.
func peelDrainRangeST(g *graph.Graph, color, comp []int32, ps scratch.PeelScratch, wave []graph.NodeID, lo, hi int, fr *worklist.Frontier[graph.NodeID]) {
	for i := lo; i < hi; i++ {
		v := wave[i]
		c := ps.Orig[v]
		for _, k := range g.Out(v) {
			if k == v || ps.Marks[k] == 0 || color[k] != c {
				continue
			}
			if ps.DegIn[k]--; ps.DegIn[k] == 0 {
				color[k] = Removed
				comp[k] = int32(k)
				ps.Orig[k] = c
				fr.Push(0, k)
			}
		}
		for _, k := range g.In(v) {
			if k == v || ps.Marks[k] == 0 || color[k] != c {
				continue
			}
			if ps.DegOut[k]--; ps.DegOut[k] == 0 {
				color[k] = Removed
				comp[k] = int32(k)
				ps.Orig[k] = c
				fr.Push(0, k)
			}
		}
	}
}

// peelDrainRange processes the already-claimed nodes of wave[lo:hi]:
// each one decrements its same-color marked neighbors' counters, and a
// counter hitting zero claims the neighbor (CAS on color, exactly one
// winner) and pushes it for the next wave. Decrements of concurrently
// claimed nodes are benign: their counters are dead and the claim CAS
// fails.
func peelDrainRange(g *graph.Graph, color, comp []int32, ps scratch.PeelScratch, wave []graph.NodeID, lo, hi int, fr *worklist.Frontier[graph.NodeID], w int) {
	for i := lo; i < hi; i++ {
		v := wave[i]
		c := ps.Orig[v]
		for _, k := range g.Out(v) {
			if k == v || ps.Marks[k] == 0 || atomic.LoadInt32(&color[k]) != c {
				continue
			}
			if atomic.AddInt32(&ps.DegIn[k], -1) == 0 &&
				atomic.CompareAndSwapInt32(&color[k], c, Removed) {
				comp[k] = int32(k)
				ps.Orig[k] = c
				fr.Push(w, k)
			}
		}
		for _, k := range g.In(v) {
			if k == v || ps.Marks[k] == 0 || atomic.LoadInt32(&color[k]) != c {
				continue
			}
			if atomic.AddInt32(&ps.DegOut[k], -1) == 0 &&
				atomic.CompareAndSwapInt32(&color[k], c, Removed) {
				comp[k] = int32(k)
				ps.Orig[k] = c
				fr.Push(w, k)
			}
		}
	}
}
