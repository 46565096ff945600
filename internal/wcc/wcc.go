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
package wcc

import (
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
	single := ar.Workers() == 1
	changedPerWorker := ar.Flags()
	for {
		if sink.Err() != nil {
			break
		}
		res.Rounds++
		ctr.AddWCCRound()
		sink.Emit(events.Event{Type: events.WCCRound, Round: res.Rounds})
		any := false
		if single {
			// Direct calls (no closures, no goroutines): the steady-state
			// zero-allocation path.
			ar.Chaos().Hit(chaos.SiteWCC)
			any = propagateRange(g, color, nodes, label, 0, len(nodes))
			if shortcutRange(nodes, label, 0, len(nodes)) {
				any = true
			}
		} else {
			for w := range changedPerWorker {
				changedPerWorker[w] = false
			}
			inj := ar.Chaos()
			// Hook: adopt the minimum neighbor label (both directions).
			ar.ForDynamic(len(nodes), 128, func(w, lo, hi int) {
				if lo == 0 {
					// One chaos hit per round, from inside the dispatch.
					inj.Hit(chaos.SiteWCC)
				}
				if propagateRange(g, color, nodes, label, lo, hi) {
					changedPerWorker[w] = true
				}
			})
			// Shortcut: one step of pointer jumping compresses label chains
			// (the second inner loop of Algorithm 7).
			ar.ForDynamic(len(nodes), 512, func(w, lo, hi int) {
				if shortcutRange(nodes, label, lo, hi) {
					changedPerWorker[w] = true
				}
			})
			for _, c := range changedPerWorker {
				any = any || c
			}
		}
		if !any {
			break
		}
	}
	for _, v := range nodes {
		if label[v] == int32(v) {
			res.Components++
		}
	}
	return res
}

// propagateRange runs the min-label adoption step over nodes[lo:hi]
// and reports whether any label changed. Plain function (not a
// closure) so the single-worker path allocates nothing per round.
func propagateRange(g *graph.Graph, color []int32, nodes []graph.NodeID, label []int32, lo, hi int) bool {
	changed := false
	for i := lo; i < hi; i++ {
		n := nodes[i]
		c := color[n]
		best := atomic.LoadInt32(&label[n])
		for _, k := range g.Out(n) {
			if color[k] == c {
				if l := atomic.LoadInt32(&label[k]); l < best {
					best = l
				}
			}
		}
		for _, k := range g.In(n) {
			if color[k] == c {
				if l := atomic.LoadInt32(&label[k]); l < best {
					best = l
				}
			}
		}
		if atomicMin(&label[n], best) {
			changed = true
		}
	}
	return changed
}

// shortcutRange runs one pointer-jumping step over nodes[lo:hi] and
// reports whether any label changed.
func shortcutRange(nodes []graph.NodeID, label []int32, lo, hi int) bool {
	changed := false
	for i := lo; i < hi; i++ {
		n := nodes[i]
		l := atomic.LoadInt32(&label[n])
		if l != int32(n) {
			if ll := atomic.LoadInt32(&label[l]); ll < l {
				if atomicMin(&label[n], ll) {
					changed = true
				}
			}
		}
	}
	return changed
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
