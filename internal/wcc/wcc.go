// Package wcc implements Par-WCC (Algorithm 7 of the paper): parallel
// weakly-connected-component labeling over the alive (unmarked) nodes
// of the graph, restricted to edges whose endpoints share a partition
// color.
//
// After the giant SCC is removed, the residual graph of a small-world
// instance consists of very many mutually disconnected small
// components (§3.3, Figure 3). Labeling each weakly connected
// component and seeding the work queue with one task per WCC is what
// restores task-level parallelism in phase 2 — the paper measures the
// work-queue depth jumping from 6 to ~10,000 on Flickr.
//
// The kernel is min-label propagation with pointer jumping: each round
// every alive node adopts the smallest label among its same-color
// neighbors (both edge directions — weak connectivity ignores edge
// orientation), then labels are shortcut one hop (label[n] ←
// label[label[n]]). Labels decrease monotonically, so concurrent
// updates are benign; the fixpoint labels every component with its
// minimum node id.
//
// Both kernels, Run and the union-find RunUF, run every round or pass
// on the arena's gang the same way at any worker count, through a
// body bound once on the arena's kept kernel state.
package wcc

import (
	"slices"
	"sync/atomic"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/scratch"
)

// Result reports labeling statistics.
type Result struct {
	// Components is the number of distinct weakly connected components
	// found among the processed nodes.
	Components int
	// Rounds is the number of propagation rounds until fixpoint. Large
	// values are the paper's signature of non-small-world graphs.
	Rounds int
}

// kernel is the WCC kernels' dispatch state, kept on the arena (see
// scratch.Keep): the inputs of the call in flight, cleared when it
// returns so the arena keeps none of its buffers, and the gang body
// every round and pass dispatches, bound once as a method value, so
// each dispatches through ar.ForDynamic at every worker count — inline
// on the caller at one worker — and allocates nothing.
type kernel struct {
	g     *graph.Graph
	color []int32
	nodes []graph.NodeID
	label []int32
	inj   *chaos.Injector
	// round is the round or pass in flight's chunk method, which body
	// runs.
	round func(k *kernel, w, lo, hi int)
	// changed is Run's per-worker flag that a round moved a label.
	changed []bool
	// tally is RunUF's per-worker counter rows in ufTally's layout,
	// added to once per chunk and folded into the run counters once
	// per pass; skip is the root the full pass skips.
	tally [][]int64
	skip  int32
	// body is chunk, bound once; end keeps it.
	body func(w, lo, hi int)
}

// begin readies the arena's kept kernel for a call over nodes, binding
// its body on first use.
func begin(g *graph.Graph, color []int32, nodes []graph.NodeID, label []int32, ar *scratch.Arena) *kernel {
	k := scratch.Keep[kernel](ar)
	body := k.body
	if body == nil {
		body = k.chunk
	}
	*k = kernel{g: g, color: color, nodes: nodes, label: label, inj: ar.Chaos(), body: body}
	return k
}

// end clears the call's inputs.
func (k *kernel) end() { *k = kernel{body: k.body} }

// dispatch runs round over the call's nodes, in chunks of the given
// size.
func (k *kernel) dispatch(ar *scratch.Arena, chunk int, round func(k *kernel, w, lo, hi int)) {
	k.round = round
	ar.ForDynamic(len(k.nodes), chunk, k.body)
}

// chunk is the gang body: the round in flight's chunk method.
func (k *kernel) chunk(w, lo, hi int) { k.round(k, w, lo, hi) }

// Run labels the weakly connected components of the subgraph induced
// by `nodes` and same-color edges. label must have length
// g.NumNodes(); on return label[v] is the minimum node id of v's
// component, for every v in nodes. Entries for nodes outside `nodes`
// are left untouched.
//
// sink (nil is valid and free) receives one WCCRound event per
// propagation round and is polled for cancellation at each round
// boundary; a canceled run returns early with partial labels.
//
// ar supplies the gang and worker count the rounds run on and the
// per-worker changed flags, and records propagation rounds into the
// run's counters.
func Run(sink *events.Sink, g *graph.Graph, color []int32, nodes []graph.NodeID, label []int32, ar *scratch.Arena) Result {
	ctr := ar.Counters()
	for _, v := range nodes {
		label[v] = int32(v)
	}
	var res Result
	k := begin(g, color, nodes, label, ar)
	k.changed = ar.Flags()
	for {
		if sink.Err() != nil {
			break
		}
		res.Rounds++
		ctr.AddWCCRound()
		sink.Emit(events.Event{Type: events.WCCRound, Round: res.Rounds})
		clear(k.changed)
		// Hook: adopt the minimum neighbor label (both directions).
		k.dispatch(ar, 128, (*kernel).propagateChunk)
		// Shortcut: one step of pointer jumping compresses label chains
		// (the second inner loop of Algorithm 7).
		k.dispatch(ar, 512, (*kernel).shortcutChunk)
		if !slices.Contains(k.changed, true) {
			break
		}
	}
	k.end()
	for _, v := range nodes {
		if label[v] == int32(v) {
			res.Components++
		}
	}
	return res
}

// propagateChunk is a round's hook body: each node of nodes[lo:hi]
// adopts the smallest label among its same-color neighbors, both
// directions. Its first chunk hits the WCC site, once per round from
// inside the dispatch.
func (k *kernel) propagateChunk(w, lo, hi int) {
	if lo == 0 {
		k.inj.Hit(chaos.SiteWCC)
	}
	g, color, label := k.g, k.color, k.label
	changed := false
	for _, n := range k.nodes[lo:hi] {
		c := color[n]
		best := atomic.LoadInt32(&label[n])
		for _, u := range g.Out(n) {
			if color[u] == c {
				if l := atomic.LoadInt32(&label[u]); l < best {
					best = l
				}
			}
		}
		for _, u := range g.In(n) {
			if color[u] == c {
				if l := atomic.LoadInt32(&label[u]); l < best {
					best = l
				}
			}
		}
		if atomicMin(&label[n], best) {
			changed = true
		}
	}
	if changed {
		k.changed[w] = true
	}
}

// shortcutChunk is a round's pointer-jumping body: one step over
// nodes[lo:hi].
func (k *kernel) shortcutChunk(w, lo, hi int) {
	label := k.label
	changed := false
	for _, n := range k.nodes[lo:hi] {
		l := atomic.LoadInt32(&label[n])
		if l != int32(n) {
			if ll := atomic.LoadInt32(&label[l]); ll < l {
				if atomicMin(&label[n], ll) {
					changed = true
				}
			}
		}
	}
	if changed {
		k.changed[w] = true
	}
}

// atomicMin lowers *p to v if v is smaller, returning whether a change
// was made. Labels only decrease, so a CAS loop suffices.
func atomicMin(p *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(p, old, v) {
			return true
		}
	}
}
