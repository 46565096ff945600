// Package bfs implements the level-synchronous parallel breadth-first
// traversal used by the data-parallel FW-BW phase (§3.2, §4.2 of the
// paper). Small-world graphs have few BFS levels with many nodes per
// level, so processing each level's frontier in parallel extracts
// data-level parallelism even while computing a single reachable set.
//
// The traversal operates on the engine's Color array rather than a
// visited bitmap: a node is claimed by atomically compare-and-swapping
// its color from the partition color being traversed to the new color
// (FW, BW, or SCC), which both marks it visited and records the
// partition assignment in one step.
//
// Each level picks its schedule from counts the traversal already
// keeps (the frontier size and how many nodes it has claimed), after
// Beamer, Asanović & Patterson's direction-optimizing BFS (cited as
// [10]; §4.2 of the paper points at it):
//
//   - a sparse frontier expands inline on the coordinating goroutine,
//     because a gang dispatch costs more than it saves;
//   - a frontier that is large next to the still-unclaimed part of the
//     caller's candidate list sweeps bottom-up: every unclaimed
//     candidate probes its traversal parents and stops at the first
//     visited one, instead of the frontier pushing along every edge;
//   - every other level expands top-down in parallel.
//
// The claimed set does not depend on the schedule, only the number of
// levels does.
//
// Run draws its frontiers, per-worker next buffers and claim counters
// from the run's *scratch.Arena, making steady-state BFS levels
// allocation-free; it runs on the arena's gang, at the arena's worker
// count, and the arena's metrics counters record level barriers and
// frontier sizes.
package bfs

import (
	"sync/atomic"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/scratch"
)

// The per-level schedule constants, picked by measurement on the
// flickr and ca-road analogs at scale 1.0 with 2 workers (the
// ablation notes in EXPERIMENTS.md have the runs).
const (
	// inlineFrontier is the largest frontier expanded on the
	// coordinator. The ca-road analog's ~2,200 levels per Detect never
	// exceed ~450 nodes, so every one of them skips the gang barrier;
	// a larger bound would also inline flickr's level of ~4,000 hubs,
	// which is milliseconds of edge work.
	inlineFrontier = 1024
	// bottomUpAlpha: a level with frontier f sweeps bottom-up once
	// f × bottomUpAlpha exceeds the candidates not yet claimed. The
	// unclaimed count includes partition nodes the sweep can never
	// reach, each of which scans all its parents on every bottom-up
	// level, so the bound is lower than Beamer's edge-based 14.
	bottomUpAlpha = 4
)

// Transition is one admissible color rewrite during traversal: a
// neighbor with color From is claimed by setting it to To.
type Transition struct {
	From, To int32
}

// maxTransitions bounds a transition table. Phase 1 passes one (the
// forward sweep) or two (the backward sweep), so a range body can
// count its claims in a fixed-size local tally.
const maxTransitions = 2

// tally is one chunk's claim count per transition.
type tally [maxTransitions]int64

// Result reports the nodes claimed by each transition.
type Result struct {
	// Claimed[i] counts nodes claimed via Transitions[i]. The slice is
	// arena-owned and stays valid for one further kernel call on the
	// same arena.
	Claimed []int64
	// Levels is the number of BFS levels processed (frontier swaps).
	Levels int
}

// Run performs a parallel BFS over g from the given seed frontier.
// Edges are followed backward (in-neighbors) if reverse is true. A
// neighbor is visited iff its current color equals some
// transitions[i].From; winning the CAS to transitions[i].To claims the
// node. Seeds must already carry their post-claim colors; they are
// expanded unconditionally and not counted in Result.Claimed.
//
// candidates, when given, must list every node the traversal can
// claim, each once (phase 1 passes the partition's member list), and
// no node outside the traversal may carry a To color: bottom-up levels
// sweep the candidates and treat a To-colored parent as visited. With
// no candidates every level runs top-down.
//
// sink carries cancellation and observability (nil is valid and
// free): each level emits one BFSLevel event, hits the chaos BFS site
// once and polls cancellation, returning the partial result early
// when the run is canceled — callers discard partial state via the
// sink's error.
//
// transitions holds at most two entries; Run panics on a longer
// table.
//
// The color slice is shared with concurrent readers/writers and is
// accessed only with atomic operations.
func Run(sink *events.Sink, g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, transitions []Transition, ar *scratch.Arena, candidates ...graph.NodeID) Result {
	return run(sink, g, reverse, seeds, color, transitions, ar, candidates, adaptive)
}

// direction selects how levels are scheduled. Run always uses
// adaptive; the forced settings let tests pin one side.
type direction uint8

const (
	adaptive direction = iota
	forceTopDown
	forceBottomUp
)

// bottomUp reports whether a level with the given frontier sweeps the
// candidates bottom-up. claimed counts the seeds and every node claimed
// so far, so len(candidates)-claimed bounds what is left to claim.
func (d direction) bottomUp(frontier, candidates, claimed int) bool {
	switch {
	case candidates == 0 || d == forceTopDown:
		return false
	case d == forceBottomUp:
		return true
	}
	return frontier > inlineFrontier && frontier*bottomUpAlpha > candidates-claimed
}

func run(sink *events.Sink, g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, transitions []Transition, ar *scratch.Arena, candidates []graph.NodeID, dir direction) Result {

	if len(transitions) > maxTransitions {
		panic("bfs: more than two transitions")
	}
	res := Result{Claimed: ar.ResultRow(len(transitions))}
	if len(seeds) == 0 {
		return res
	}
	workers := ar.Workers()
	ctr := ar.Counters()

	frontier := append(ar.GetNodes(len(seeds)), seeds...)
	next := ar.GetLists()
	claims := ar.ClaimMatrix(len(transitions))
	claimed := len(seeds)

	for len(frontier) > 0 {
		if sink.Err() != nil {
			break
		}
		res.Levels++
		bottomUp := dir.bottomUp(len(frontier), len(candidates), claimed)
		ctr.AddBFSLevel(int64(len(frontier)), bottomUp)
		sink.Emit(events.Event{Type: events.BFSLevel, Round: res.Levels, Frontier: len(frontier)})
		level, nodes, chunk := expandRange, frontier, 64
		if bottomUp {
			level, nodes, chunk = sweepRange, candidates, 512
		}
		if workers == 1 || (!bottomUp && len(frontier) <= inlineFrontier) {
			// Direct call on the coordinator: no closure, no goroutines —
			// the steady-state zero-allocation path.
			ar.Chaos().Hit(chaos.SiteBFS)
			var cnt tally
			next[0], cnt = level(g, reverse, nodes, 0, len(nodes), color, transitions, next[0])
			cnt.addTo(claims[0])
		} else {
			levelPar(level, g, reverse, nodes, chunk, color, transitions, next, claims, ar)
		}
		// Level barrier: merge per-worker buffers into the new frontier.
		frontier = frontier[:0]
		for w := range next {
			frontier = append(frontier, next[w]...)
			next[w] = next[w][:0]
		}
		claimed += len(frontier)
	}
	for w := range claims {
		for ti := range transitions {
			res.Claimed[ti] += claims[w][ti]
		}
	}
	ar.PutLists(next)
	ar.PutNodes(frontier)
	return res
}

// levelFunc processes nodes[lo:hi] of one level, appending claims to
// buf and returning it with the claims counted per transition:
// expandRange top-down over the frontier, sweepRange bottom-up over the
// candidates. The caller writes both into the worker's slots once per
// chunk; per-item writes there would bounce the cache line the
// workers' adjacent slots share.
type levelFunc func(g *graph.Graph, reverse bool, nodes []graph.NodeID, lo, hi int,
	color []int32, transitions []Transition, buf []graph.NodeID) ([]graph.NodeID, tally)

// addTo adds the tally into a worker's claim row.
func (t tally) addTo(row []int64) {
	for ti := range row {
		row[ti] += t[ti]
	}
}

// levelPar runs one level on the gang with dynamic chunks: top-down
// frontier nodes vary wildly in degree on scale-free graphs (§4.3),
// while most bottom-up candidates cost one color load, hence the
// caller's larger chunk. It lives outside run so the escaping closure
// (and the heap cells its captures force) never exists on the
// single-worker path.
func levelPar(level levelFunc, g *graph.Graph, reverse bool, nodes []graph.NodeID, chunk int,
	color []int32, transitions []Transition, next [][]graph.NodeID, claims [][]int64, ar *scratch.Arena) {
	inj := ar.Chaos()
	ar.ForDynamic(len(nodes), chunk, func(w, lo, hi int) {
		if lo == 0 {
			// One chaos hit per level, from inside the dispatch.
			inj.Hit(chaos.SiteBFS)
		}
		buf, cnt := level(g, reverse, nodes, lo, hi, color, transitions, next[w])
		next[w] = buf
		cnt.addTo(claims[w])
	})
}

// expandRange expands frontier[lo:hi], claiming admissible neighbors
// by CAS, appending wins to buf and counting them per transition. It
// is a plain function (not a closure) so the single-worker path can
// call it without any per-level allocation.
func expandRange(g *graph.Graph, reverse bool, frontier []graph.NodeID, lo, hi int,
	color []int32, transitions []Transition, buf []graph.NodeID) ([]graph.NodeID, tally) {
	var cnt tally
	for i := lo; i < hi; i++ {
		v := frontier[i]
		var nbrs []graph.NodeID
		if reverse {
			nbrs = g.In(v)
		} else {
			nbrs = g.Out(v)
		}
		for _, t := range nbrs {
			c := atomic.LoadInt32(&color[t])
			for ti := range transitions {
				if c == transitions[ti].From {
					if atomic.CompareAndSwapInt32(&color[t], c, transitions[ti].To) {
						buf = append(buf, t)
						cnt[ti]++
					}
					break
				}
			}
		}
	}
	return buf, cnt
}

// sweepRange is the bottom-up counterpart of expandRange over
// candidates[lo:hi]: each still-admissible candidate scans its
// traversal parents (out-neighbors for a reverse traversal, in-neighbors
// for a forward one) and is claimed at the first visited one. A parent
// claimed earlier in the same sweep counts as visited, which is sound —
// it is reachable — and only merges levels.
func sweepRange(g *graph.Graph, reverse bool, candidates []graph.NodeID, lo, hi int,
	color []int32, transitions []Transition, buf []graph.NodeID) ([]graph.NodeID, tally) {
	var cnt tally
	for i := lo; i < hi; i++ {
		u := candidates[i]
		c := atomic.LoadInt32(&color[u])
		ti := 0
		for ti < len(transitions) && transitions[ti].From != c {
			ti++
		}
		if ti == len(transitions) {
			continue
		}
		var parents []graph.NodeID
		if reverse {
			parents = g.Out(u)
		} else {
			parents = g.In(u)
		}
		for _, p := range parents {
			if visited(atomic.LoadInt32(&color[p]), transitions) {
				if atomic.CompareAndSwapInt32(&color[u], c, transitions[ti].To) {
					buf = append(buf, u)
					cnt[ti]++
				}
				break
			}
		}
	}
	return buf, cnt
}

// visited reports whether c is a post-claim color.
func visited(c int32, transitions []Transition) bool {
	for i := range transitions {
		if transitions[i].To == c {
			return true
		}
	}
	return false
}
