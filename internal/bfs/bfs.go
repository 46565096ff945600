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
//   - a sparse frontier expands inline on the calling goroutine,
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
// A Search can pause between levels. Its Open runs only the inline
// levels and stops before the first that would not run inline, and it
// touches no coordinator-only arena state, so two searches can open at
// once on two gang workers (phase 1's forward and backward sweeps do).
// Finish resumes the search from where it paused, with the per-level
// schedule. Run is a Search started and finished in one call.
//
// A search draws its frontier and next buffer, and for parallel levels
// its per-worker next lists and claim counters, from the run's
// *scratch.Arena, making steady-state BFS levels allocation-free; it
// runs on the arena's gang, at the arena's worker count, and the
// arena's metrics counters record level barriers and frontier sizes.
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
	// inlineFrontier is the largest frontier expanded inline, on the
	// goroutine running the search: the coordinator, or the gang worker
	// a search opens on beside another search. The ca-road analog's
	// ~2,200 levels per Detect never exceed ~450 nodes, so every one of
	// them skips the gang barrier, and its forward and backward
	// searches run all of them at the same time; a larger bound would
	// also inline flickr's level of ~4,000 hubs, which is milliseconds
	// of edge work.
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

// maxTransitions bounds a transition table. Phase 1's searches pass
// two each, so a range body can count its claims in a fixed-size local
// tally and keep the table in registers (see table).
const maxTransitions = 2

// tally is one chunk's claim count per transition.
type tally [maxTransitions]int64

// Result reports the nodes claimed by each transition.
type Result struct {
	// Claimed[i] counts nodes claimed via Transitions[i]; entries past
	// the table's length stay 0.
	Claimed [maxTransitions]int64
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
// transitions holds one or two entries, and no To may also be a
// From; Run panics on any other length. A claim that loses its CAS
// reloads the color and tries again while some transition still admits
// it, so a concurrent search over the same colors may move a node
// between admissible colors under this one.
//
// The color slice is shared with concurrent readers/writers and is
// accessed only with atomic operations.
func Run(sink *events.Sink, g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, transitions []Transition, ar *scratch.Arena, candidates ...graph.NodeID) Result {
	return run(sink, g, reverse, seeds, color, transitions, ar, candidates, adaptive)
}

func run(sink *events.Sink, g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, transitions []Transition, ar *scratch.Arena, candidates []graph.NodeID, dir direction) Result {
	var s Search
	s.start(g, reverse, seeds, color, transitions, ar, candidates, dir)
	return s.Finish(sink, ar)
}

// Search is one traversal that can pause between levels. Start
// readies it, Open runs its inline levels, and Finish runs the rest;
// Run's contract covers the whole.
type Search struct {
	g          *graph.Graph
	reverse    bool
	color      []int32
	tab        table
	candidates []graph.NodeID
	dir        direction

	// frontier is the next level to expand, and next the buffer inline
	// levels fill; Start draws both from the arena and Finish returns
	// them. claimed counts the seeds and every node claimed so far.
	frontier, next []graph.NodeID
	claimed        int
	res            Result
}

// Start readies s for a traversal with Run's arguments, drawing its
// frontier and next buffer from ar. Coordinator only.
func (s *Search) Start(g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, transitions []Transition, ar *scratch.Arena, candidates []graph.NodeID) {
	s.start(g, reverse, seeds, color, transitions, ar, candidates, adaptive)
}

func (s *Search) start(g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, transitions []Transition, ar *scratch.Arena, candidates []graph.NodeID, dir direction) {
	if len(transitions) == 0 || len(transitions) > maxTransitions {
		panic("bfs: a transition table holds one or two entries")
	}
	*s = Search{g: g, reverse: reverse, color: color, tab: tableOf(transitions),
		candidates: candidates, dir: dir, claimed: len(seeds)}
	s.frontier = append(ar.GetNodes(len(seeds)), seeds...)
	s.next = ar.GetNodes(0)
}

// Open runs s's levels on the calling goroutine for as long as each
// would run inline — top-down over at most inlineFrontier nodes — and
// pauses before the first that would not, or when the run is
// canceled. It touches no coordinator-only arena state, so two
// searches may Open at once, each on its own gang worker.
func (s *Search) Open(sink *events.Sink, ar *scratch.Arena) { s.levels(sink, ar, true) }

// Finish runs s's remaining levels with the per-level schedule,
// returns its buffers to ar and reports what the whole search claimed.
// The finished s holds nothing. Coordinator only.
func (s *Search) Finish(sink *events.Sink, ar *scratch.Arena) Result {
	s.levels(sink, ar, false)
	ar.PutNodes(s.frontier)
	ar.PutNodes(s.next)
	res := s.res
	*s = Search{}
	return res
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

// levels is the search's level loop. It runs until the frontier
// empties or the run is canceled; a solo call (Open) also stops before
// the first level that would not run inline, leaving that level as the
// frontier to resume from. The state lives in locals while the loop
// runs, so two searches opening side by side write their adjacent
// structs only once each.
func (s *Search) levels(sink *events.Sink, ar *scratch.Arena, solo bool) {
	workers := ar.Workers()
	ctr := ar.Counters()
	frontier, next, claimed, res := s.frontier, s.next, s.claimed, s.res
	var lists [][]graph.NodeID
	var claims [][]int64
	for len(frontier) > 0 {
		bottomUp := s.dir.bottomUp(len(frontier), len(s.candidates), claimed)
		inline := !bottomUp && len(frontier) <= inlineFrontier
		if (solo && !inline) || sink.Err() != nil {
			break
		}
		res.Levels++
		ctr.AddBFSLevel(int64(len(frontier)), bottomUp)
		sink.Emit(events.Event{Type: events.BFSLevel, Round: res.Levels, Frontier: len(frontier)})
		level, nodes, chunk := expandRange, frontier, 64
		if bottomUp {
			level, nodes, chunk = sweepRange, s.candidates, 512
		}
		if inline || workers == 1 {
			// Direct call on the calling goroutine: no closure, no
			// goroutines — the steady-state zero-allocation path. The
			// level's output becomes the frontier by a swap.
			ar.Chaos().Hit(chaos.SiteBFS)
			var cnt tally
			next, cnt = level(s.g, s.reverse, nodes, 0, len(nodes), s.color, s.tab, next[:0])
			cnt.addTo(res.Claimed[:])
			frontier, next = next, frontier
		} else {
			if lists == nil {
				lists, claims = ar.GetLists(), ar.ClaimMatrix(maxTransitions)
			}
			levelPar(level, s.g, s.reverse, nodes, chunk, s.color, s.tab, lists, claims, ar)
			// Level barrier: merge per-worker buffers into the new frontier.
			frontier = frontier[:0]
			for w := range lists {
				frontier = append(frontier, lists[w]...)
				lists[w] = lists[w][:0]
			}
		}
		claimed += len(frontier)
	}
	if lists != nil {
		for _, row := range claims {
			for ti, n := range row {
				res.Claimed[ti] += n
			}
		}
		ar.PutLists(lists)
	}
	s.frontier, s.next, s.claimed, s.res = frontier, next, claimed, res
}

// levelFunc processes nodes[lo:hi] of one level, appending claims to
// buf and returning it with the claims counted per transition:
// expandRange top-down over the frontier, sweepRange bottom-up over the
// candidates. The caller writes both into the worker's slots once per
// chunk; per-item writes there would bounce the cache line the
// workers' adjacent slots share.
type levelFunc func(g *graph.Graph, reverse bool, nodes []graph.NodeID, lo, hi int,
	color []int32, tab table, buf []graph.NodeID) ([]graph.NodeID, tally)

// addTo adds the tally into a claim row.
func (t tally) addTo(row []int64) {
	for ti := range row {
		row[ti] += t[ti]
	}
}

// levelPar runs one level on the gang with dynamic chunks: top-down
// frontier nodes vary wildly in degree on scale-free graphs (§4.3),
// while most bottom-up candidates cost one color load, hence the
// caller's larger chunk. It lives outside the level loop so the
// escaping closure (and the heap cells its captures force) never
// exists on the single-worker path.
func levelPar(level levelFunc, g *graph.Graph, reverse bool, nodes []graph.NodeID, chunk int,
	color []int32, tab table, next [][]graph.NodeID, claims [][]int64, ar *scratch.Arena) {
	inj := ar.Chaos()
	ar.ForDynamic(len(nodes), chunk, func(w, lo, hi int) {
		if lo == 0 {
			// One chaos hit per level, from inside the dispatch.
			inj.Hit(chaos.SiteBFS)
		}
		buf, cnt := level(g, reverse, nodes, lo, hi, color, tab, next[w])
		next[w] = buf
		cnt.addTo(claims[w])
	})
}

// expandRange expands frontier[lo:hi], claiming admissible neighbors
// by CAS, appending wins to buf and counting them per transition. It
// is a plain function (not a closure) so the single-worker path can
// call it without any per-level allocation.
func expandRange(g *graph.Graph, reverse bool, frontier []graph.NodeID, lo, hi int,
	color []int32, tab table, buf []graph.NodeID) ([]graph.NodeID, tally) {
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
			if ti := tab.claim(color, t, atomic.LoadInt32(&color[t])); ti >= 0 {
				buf = append(buf, t)
				cnt[ti]++
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
	color []int32, tab table, buf []graph.NodeID) ([]graph.NodeID, tally) {
	var cnt tally
	for i := lo; i < hi; i++ {
		u := candidates[i]
		c := atomic.LoadInt32(&color[u])
		if tab.admit(c) < 0 {
			continue
		}
		var parents []graph.NodeID
		if reverse {
			parents = g.Out(u)
		} else {
			parents = g.In(u)
		}
		for _, p := range parents {
			if !tab.visited(atomic.LoadInt32(&color[p])) {
				continue
			}
			if ti := tab.claim(color, u, c); ti >= 0 {
				buf = append(buf, u)
				cnt[ti]++
			}
			break
		}
	}
	return buf, cnt
}

// table is a transition table held in four words, so the range bodies
// keep it in registers across their atomic operations. Read from a
// slice, its entries were reloaded for every neighbor, and phase 1's
// two-entry tables made a forward sweep of an R-MAT giant about an
// eighth slower than a one-entry table (2 workers on a 2-vCPU Xeon;
// EXPERIMENTS.md). A one-entry table repeats its entry in the second
// slot, which changes nothing: the first admitting transition wins,
// and its To counts as visited either way.
type table struct{ from0, to0, from1, to1 int32 }

func tableOf(transitions []Transition) table {
	first, last := transitions[0], transitions[len(transitions)-1]
	return table{first.From, first.To, last.From, last.To}
}

// admit returns the index of the transition that admits color c, or -1
// when none does.
func (t table) admit(c int32) int {
	switch c {
	case t.from0:
		return 0
	case t.from1:
		return 1
	}
	return -1
}

// visited reports whether c is a post-claim color.
func (t table) visited(c int32) bool { return c == t.to0 || c == t.to1 }

// claim moves node v, last seen with color c, to the To color of the
// transition that admits it, and returns that transition's index, or
// -1 when no transition admits v's color. A lost CAS reloads the color
// and tries again, since a concurrent search over the same colors may
// have moved v to another admissible color. Within one search the
// reloaded color is the search's own To, which no transition admits.
func (t table) claim(color []int32, v graph.NodeID, c int32) int {
	for {
		ti := t.admit(c)
		to := t.to0
		if ti == 1 {
			to = t.to1
		}
		if ti < 0 || atomic.CompareAndSwapInt32(&color[v], c, to) {
			return ti
		}
		c = atomic.LoadInt32(&color[v])
	}
}
