// Package trim implements the parallel trimming kernels of the paper:
// Par-Trim (Algorithm 4), which iteratively removes trivial size-1 SCCs
// (nodes with zero in- or out-degree within their partition), and
// Par-Trim2 (Algorithm 8), which detects the two size-2 SCC patterns of
// Figure 4 in a single parallel pass.
//
// Both kernels operate on the engine's shared state: color[v] is the
// partition color of node v (-1 once removed), and comp[v] records the
// SCC representative once v's SCC is known. Removal is published by a
// compare-and-swap on color, so concurrent trims are monotone-safe: a
// node is only ever trimmed based on neighbors that are genuinely
// removed, and removing more nodes can only enable more trims.
//
// All kernels take the run's *scratch.Arena and run on its gang, at
// its worker count: every round dispatches the same way at any count,
// through a body bound once on the arena's kept kernel state. The
// caller's candidates slice is never pooled: the returned survivor
// list is always distinct arena-owned storage, so the caller can
// release its own candidates buffer and, later, the returned one,
// without double-free hazards.
package trim

import (
	"slices"
	"sync/atomic"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/scratch"
	"repro/internal/worklist"
)

// Removed is the color value of a node whose SCC has been identified.
const Removed int32 = -1

// Result summarizes one trimming invocation.
type Result struct {
	// Removed is the number of nodes whose SCCs were identified.
	Removed int64
	// SCCs is the number of SCCs emitted (== Removed for Par-Trim,
	// Removed/2 for Par-Trim2).
	SCCs int64
	// Rounds is the number of fixpoint iterations (1 for Par-Trim2).
	Rounds int
}

// trimmable reports whether v, of color c, has no alive same-color
// in-neighbor or no alive same-color out-neighbor — the Par-Trim
// predicate. Each direction stops at its first live support (the
// arc-consistency view of trimming, Guo & Sekerinski): a degree count
// would scan every edge of a node that is not trimmable anyway.
func trimmable(g *graph.Graph, color []int32, v graph.NodeID, c int32) bool {
	return support(g.In(v), color, v, c, 0) < 0 || support(g.Out(v), color, v, c, 0) < 0
}

// support returns the position of the first entry of adj at or after
// from that is a neighbor other than v still carrying color c, or -1.
// Self-loops never count: a node whose only cycle is a self-loop is
// still a size-1 SCC and is correctly trimmed.
func support(adj []graph.NodeID, color []int32, v graph.NodeID, c int32, from int) int {
	for i := from; i < len(adj); i++ {
		if k := adj[i]; k != v && atomic.LoadInt32(&color[k]) == c {
			return i
		}
	}
	return -1
}

// allCandidates draws an arena buffer holding every node of g.
func allCandidates(g *graph.Graph, ar *scratch.Arena) []graph.NodeID {
	out := ar.GetNodes(g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		out = append(out, graph.NodeID(i))
	}
	return out
}

// scanChunk is the dynamic-scheduling chunk of the scan rounds (Par's
// rounds, Par2's pass and Peel's cascade), and so the size of the
// stack buffer each chunk gathers its output in. Scan cost is the
// node's degree, which is heavily skewed on scale-free graphs (§4.3).
const scanChunk = 128

// kernel is the trim kernels' dispatch state, kept on the arena (see
// scratch.Keep): the inputs of the call in flight, cleared when it
// returns so the arena keeps none of its buffers, and the gang body
// every round dispatches, bound once as a method value, so each round
// of Par, Par2 and Peel dispatches through ar.ForDynamic at every
// worker count — inline on the caller at one worker — and allocates
// nothing.
type kernel struct {
	g           *graph.Graph
	color, comp []int32
	inj         *chaos.Injector
	// round is the round in flight's chunk method, which body runs,
	// and nodes its input: Par's active list, Par2's candidates,
	// Peel's cascade candidates or drain wave.
	round func(k *kernel, w, lo, hi int)
	nodes []graph.NodeID
	// out receives a scan round's survivors at its front (and the
	// cascade's removals at its back); kept and removed count them
	// (Par2 counts pairs), each chunk reserving its places with one
	// atomic add.
	out           []graph.NodeID
	kept, removed int64
	// Peel's state: the support pointers and marks, the wave frontier,
	// and whether claims may be plain stores (one worker).
	ps     scratch.PeelScratch
	fr     worklist.Frontier[graph.NodeID]
	single bool
	// body is chunk, bound once; end keeps it.
	body func(w, lo, hi int)
}

// begin readies the arena's kept kernel for a call over g's color and
// comp arrays, binding its body on first use.
func begin(g *graph.Graph, color, comp []int32, ar *scratch.Arena) *kernel {
	k := scratch.Keep[kernel](ar)
	body := k.body
	if body == nil {
		body = k.chunk
	}
	*k = kernel{g: g, color: color, comp: comp, inj: ar.Chaos(), single: ar.Workers() == 1, body: body}
	return k
}

// end clears the call's inputs.
func (k *kernel) end() { *k = kernel{body: k.body} }

// dispatch runs round over nodes, in chunks of the given size.
func (k *kernel) dispatch(ar *scratch.Arena, nodes []graph.NodeID, chunk int, round func(k *kernel, w, lo, hi int)) {
	k.round, k.nodes = round, nodes
	ar.ForDynamic(len(nodes), chunk, k.body)
}

// chunk is the gang body: the round in flight's chunk method.
func (k *kernel) chunk(w, lo, hi int) { k.round(k, w, lo, hi) }

// scan runs a scan round over nodes into out, whose capacity must hold
// them, and returns the survivors at out's front with the removals
// (Par2: pairs) the round counted.
func (k *kernel) scan(ar *scratch.Arena, nodes, out []graph.NodeID, round func(k *kernel, w, lo, hi int)) ([]graph.NodeID, int64) {
	k.out, k.kept, k.removed = out[:len(nodes)], 0, 0
	k.dispatch(ar, nodes, scanChunk, round)
	return out[:k.kept], k.removed
}

// keep copies a chunk's survivors to places at the front of out,
// reserved with one atomic add. A chunk run inline at one worker spans
// the whole round and keeps it scanChunk nodes at a time, in order.
func (k *kernel) keep(buf []graph.NodeID) {
	n := int64(len(buf))
	copy(k.out[atomic.AddInt64(&k.kept, n)-n:], buf)
}

// Par runs Par-Trim over the candidate nodes until no more nodes can
// be trimmed. candidates lists the nodes to consider (they need not
// all be alive); if nil, every node of g is considered. It returns the
// trim result and the surviving (still-alive) subset of the
// candidates, which the caller may reuse as the next phase's node set.
// The survivors are arena-owned storage distinct from candidates;
// release them with ar.PutNodes when done.
//
// sink (nil is valid and free) receives one TrimRound event per
// fixpoint iteration and is polled for cancellation at each round
// boundary; a canceled run returns the partial result early.
func Par(sink *events.Sink, g *graph.Graph, color, comp []int32, candidates []graph.NodeID, ar *scratch.Arena) (Result, []graph.NodeID) {
	ownCandidates := false
	if candidates == nil {
		candidates = allCandidates(g, ar)
		ownCandidates = true
	}
	k := begin(g, color, comp, ar)
	ctr := ar.Counters()
	var res Result
	active := candidates
	// Survivor lists ping-pong between two arena buffers so the
	// caller's candidates slice is read once and never written.
	bufA := slices.Grow(ar.GetNodes(len(candidates)), len(candidates))
	bufB := slices.Grow(ar.GetNodes(len(candidates)), len(candidates))
	dst := bufA
	for {
		if sink.Err() != nil {
			break
		}
		res.Rounds++
		var roundRemoved int64
		dst, roundRemoved = k.scan(ar, active, dst, (*kernel).trimChunk)
		res.Removed += roundRemoved
		res.SCCs += roundRemoved
		ctr.AddTrimRound(roundRemoved)
		sink.Emit(events.Event{Type: events.TrimRound, Round: res.Rounds, Nodes: roundRemoved})
		prev := active
		active = dst
		if res.Rounds == 1 {
			dst = bufB // round 1 read the caller's candidates; don't recycle them
		} else {
			dst = prev
		}
		if roundRemoved == 0 {
			break
		}
	}
	k.end()
	if res.Rounds == 0 {
		// Canceled before the first round: active still aliases
		// candidates, so hand back a copy in arena storage.
		out := append(bufA[:0], active...)
		ar.PutNodes(bufB)
		if ownCandidates {
			ar.PutNodes(candidates)
		}
		return res, out
	}
	// active is one of {bufA, bufB}; dst is the other.
	ar.PutNodes(dst)
	if ownCandidates {
		ar.PutNodes(candidates)
	}
	return res, active
}

// trimChunk is Par's round body over nodes[lo:hi]. Its first chunk
// hits the trim site: once per round, from inside the dispatch, so
// injected failures exercise worker-side capture.
func (k *kernel) trimChunk(w, lo, hi int) {
	if lo == 0 {
		k.inj.Hit(chaos.SiteTrim)
	}
	var buf [scanChunk]graph.NodeID
	for ; lo < hi; lo += scanChunk {
		kept, removed := trimRange(k.g, k.color, k.comp, k.nodes, lo, min(lo+scanChunk, hi), buf[:0])
		k.keep(kept)
		atomic.AddInt64(&k.removed, removed)
	}
}

// trimRange applies one trim round to active[lo:hi], CAS-removing
// nodes with zero alive in- or out-degree, appending survivors to buf,
// and returning buf with the number of nodes removed.
func trimRange(g *graph.Graph, color, comp []int32, active []graph.NodeID, lo, hi int, buf []graph.NodeID) ([]graph.NodeID, int64) {
	removed := int64(0)
	for i := lo; i < hi; i++ {
		v := active[i]
		c := atomic.LoadInt32(&color[v])
		if c == Removed {
			continue
		}
		if trimmable(g, color, v, c) {
			if atomic.CompareAndSwapInt32(&color[v], c, Removed) {
				comp[v] = int32(v)
				removed++
				continue
			}
		}
		buf = append(buf, v)
	}
	return buf, removed
}

// Par2 runs Par-Trim2 once over the candidate nodes, removing size-2
// SCCs matching the patterns of Figure 4: a 2-cycle {n,k} where either
// both nodes have no other incoming edges (pattern a) or both have no
// other outgoing edges (pattern b) within the partition. It returns
// the result and the surviving candidates (arena-owned, distinct from
// candidates).
//
// A pair is claimed by CASing the lower-numbered node's color to
// Removed first; the losing side of a race rolls back, so each size-2
// SCC is emitted exactly once. Par2 is a single parallel round; it
// emits one TrimRound event on sink and checks cancellation once on
// entry.
func Par2(sink *events.Sink, g *graph.Graph, color, comp []int32, candidates []graph.NodeID, ar *scratch.Arena) (Result, []graph.NodeID) {
	ownCandidates := false
	if candidates == nil {
		candidates = allCandidates(g, ar)
		ownCandidates = true
	}
	survivors := slices.Grow(ar.GetNodes(len(candidates)), len(candidates))
	if sink.Err() != nil {
		survivors = append(survivors, candidates...)
		if ownCandidates {
			ar.PutNodes(candidates)
		}
		return Result{}, survivors
	}
	ctr := ar.Counters()
	res := Result{Rounds: 1}
	k := begin(g, color, comp, ar)
	survivors, res.SCCs = k.scan(ar, candidates, survivors, (*kernel).trim2Chunk)
	k.end()
	survivors = dropRemoved(color, survivors)
	res.Removed = 2 * res.SCCs
	ctr.AddTrimRound(res.Removed)
	ctr.AddTrim2Pairs(res.SCCs)
	sink.Emit(events.Event{Type: events.TrimRound, Round: 1, Nodes: res.Removed})
	if ownCandidates {
		ar.PutNodes(candidates)
	}
	return res, survivors
}

// trim2Chunk is Par2's body over nodes[lo:hi]; its first chunk hits
// the Trim2 site.
func (k *kernel) trim2Chunk(w, lo, hi int) {
	if lo == 0 {
		k.inj.Hit(chaos.SiteTrim2)
	}
	var buf [scanChunk]graph.NodeID
	for ; lo < hi; lo += scanChunk {
		kept, pairs := trim2Range(k.g, k.color, k.comp, k.nodes, lo, min(lo+scanChunk, hi), buf[:0])
		k.keep(kept)
		atomic.AddInt64(&k.removed, pairs)
	}
}

// dropRemoved filters Removed nodes out of a pair or triangle pass's
// survivor list, in place. A scan keeps a node it cannot claim, but
// the node's partner may claim it afterwards: a concurrent worker whose
// claim was in flight during the scan, or a later pattern that an
// intervening removal enabled.
func dropRemoved(color []int32, survivors []graph.NodeID) []graph.NodeID {
	out := survivors[:0]
	for _, v := range survivors {
		if atomic.LoadInt32(&color[v]) != Removed {
			out = append(out, v)
		}
	}
	return out
}

// trim2Range applies the Trim2 pass to candidates[lo:hi], appending
// survivors to buf and returning buf with the number of pairs claimed.
func trim2Range(g *graph.Graph, color, comp []int32, candidates []graph.NodeID, lo, hi int, buf []graph.NodeID) ([]graph.NodeID, int64) {
	var pairs int64
	for i := lo; i < hi; i++ {
		v := candidates[i]
		c := atomic.LoadInt32(&color[v])
		if c == Removed {
			continue
		}
		if k, ok := trim2Partner(g, color, v, c); ok {
			if claimPair(color, comp, v, k, c) {
				pairs++
				continue
			}
			// Lost the race: v was claimed by its partner's side.
			if atomic.LoadInt32(&color[v]) == Removed {
				continue
			}
		}
		buf = append(buf, v)
	}
	return buf, pairs
}

// trim2Partner checks both Figure-4 patterns for node v and returns
// the partner node if v is half of a detectable size-2 SCC.
func trim2Partner(g *graph.Graph, color []int32, v graph.NodeID, c int32) (graph.NodeID, bool) {
	// Pattern (a): v's single in-neighbor k, mutual edge, and v is also
	// k's single in-neighbor.
	if k := soleNeighbor(g.In(v), color, v, c); k >= 0 && g.HasEdge(v, k) &&
		soleNeighbor(g.In(k), color, k, c) == v {
		return k, true
	}
	// Pattern (b): v's single out-neighbor k, mutual edge, and v is
	// also k's single out-neighbor.
	if k := soleNeighbor(g.Out(v), color, v, c); k >= 0 && g.HasEdge(k, v) &&
		soleNeighbor(g.Out(k), color, k, c) == v {
		return k, true
	}
	return -1, false
}

// soleNeighbor returns the unique alive same-color neighbor of v in
// the given adjacency list (excluding v itself), or -1 if there is not
// exactly one.
func soleNeighbor(adj []graph.NodeID, color []int32, v graph.NodeID, c int32) graph.NodeID {
	var found graph.NodeID = -1
	for _, k := range adj {
		if k == v || atomic.LoadInt32(&color[k]) != c {
			continue
		}
		if found >= 0 && found != k {
			return -1
		}
		found = k
	}
	return found
}

// claimPair atomically claims the 2-cycle {a,b} (colors c→Removed),
// rolling back if the partner is lost to a concurrent claim. On
// success both comp entries point at the smaller node id.
func claimPair(color, comp []int32, a, b graph.NodeID, c int32) bool {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if !atomic.CompareAndSwapInt32(&color[lo], c, Removed) {
		return false
	}
	if !atomic.CompareAndSwapInt32(&color[hi], c, Removed) {
		// Partner vanished: undo the first claim. The transient Removed
		// state can at worst make a concurrent observer skip a trim it
		// would have made; trims are best-effort so that is benign.
		atomic.StoreInt32(&color[lo], c)
		return false
	}
	comp[lo] = int32(lo)
	comp[hi] = int32(lo)
	return true
}
