// Package bfs implements the level-synchronous parallel breadth-first
// traversal used by the data-parallel FW-BW phase (§3.2, §4.2 of the
// paper). Small-world graphs have few BFS levels with many nodes per
// level, so processing each level's frontier in parallel extracts
// data-level parallelism even while computing a single reachable set.
//
// A traversal runs inside one partition of the engine's Color array
// and marks what it reaches in a visited bitmap that only it writes,
// one bit per node (see Visited for the layout): a node is admissible
// when its color is the partition color and its bit is clear, and
// setting the bit claims it. The color array is only read while
// traversals run, so phase 1's forward and backward searches share it
// without a claim protocol, and the caller publishes the partition
// they leave (FW ∩ BW, FW only, BW only) in one pass afterwards.
// Every bit is set on one goroutine, with plain loads and stores and
// no branch on the visited test: a level that runs on one goroutine
// claims as it goes, while the workers of a parallel level only read
// the bitmap and the level's claims are set at its barrier.
//
// Each level picks its schedule from counts the traversal already
// keeps, after Beamer, Asanović & Patterson's direction-optimizing BFS
// (cited as [10]; §4.2 of the paper points at it):
//
//   - a sparse frontier expands inline on the calling goroutine,
//     because a gang dispatch costs more than it saves;
//   - a frontier whose edges outnumber, by bottomUpAlpha, the edges
//     of the caller's still-unclaimed candidates sweeps bottom-up:
//     every unclaimed candidate probes its traversal parents against
//     the bitmap and stops at the first visited one, instead of the
//     frontier pushing along every edge, and the sweep's claims are
//     marked once it is done;
//   - every other level expands top-down in parallel.
//
// The claimed set does not depend on the schedule, only the number of
// levels does; neither depends on the worker count.
//
// A Search can pause between levels. Its Open runs only the inline
// levels and stops before the first that would not run inline, and it
// touches no coordinator-only arena state, so two searches can open at
// once on two gang workers (phase 1's forward and backward sweeps do).
// Finish resumes the search from where it paused, with the per-level
// schedule. Run is a Search started and finished in one call.
//
// A search draws its frontier and next buffer, and for parallel levels
// its per-worker next lists, from the run's *scratch.Arena, and a
// parallel level dispatches a body bound once on the arena's kept level
// state, making steady-state BFS levels allocation-free at any worker
// count; it runs on the arena's gang, at the arena's worker count, and
// the arena's metrics counters record level barriers and frontier
// sizes.
package bfs

import (
	"slices"

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
	// bottomUpAlpha is Beamer's α: a level sweeps bottom-up once its
	// frontier's edges times bottomUpAlpha exceed the edges of the
	// unclaimed candidates, estimated as their count times the graph's
	// mean degree. It is Beamer's value. Counting edges rather than
	// nodes sends flickr's first large level (the pivot's ~3,600
	// forward neighbors at seed 1, most of them hubs) bottom-up.
	bottomUpAlpha = 14
)

// Visited reports whether node v's bit is set in a visited bitmap: bit
// v%32 of word v/32. A bitmap for n nodes holds (n+31)/32 words.
func Visited(visited []uint32, v graph.NodeID) bool {
	return visited[v>>5]>>(uint32(v)&31)&1 != 0
}

// mark sets the bits of nodes in visited. The caller is the only
// goroutine touching visited.
func mark(visited []uint32, nodes []graph.NodeID) {
	for _, v := range nodes {
		visited[v>>5] |= 1 << (uint32(v) & 31)
	}
}

// Result reports what a traversal claimed.
type Result struct {
	// Claimed counts the nodes the traversal claimed, seeds excluded.
	Claimed int64
	// Levels is the number of BFS levels processed (frontier swaps).
	Levels int
}

// Run performs a parallel BFS over g from the given seed frontier.
// Edges are followed backward (in-neighbors) if reverse is true. A
// neighbor is admissible iff its color is c and its bit in visited is
// clear, and setting the bit claims it. Run marks the seeds in visited
// and expands them unconditionally; they are not counted in
// Result.Claimed. visited holds a bit for every node of g and is
// written only by this traversal while it runs; color is only read.
//
// candidates, when given, must list every node of color c the
// traversal can claim, each once (phase 1 passes the partition's
// member list in ascending order, which gives each bottom-up chunk a
// contiguous run of bitmap words). With no candidates every level runs
// top-down.
//
// sink carries cancellation and observability (nil is valid and
// free): each level emits one BFSLevel event, hits the chaos BFS site
// once and polls cancellation, returning the partial result early
// when the run is canceled — callers discard partial state via the
// sink's error.
func Run(sink *events.Sink, g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, c int32, visited []uint32, ar *scratch.Arena, candidates ...graph.NodeID) Result {
	return run(sink, g, reverse, seeds, color, c, visited, ar, candidates, adaptive)
}

func run(sink *events.Sink, g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, c int32, visited []uint32, ar *scratch.Arena, candidates []graph.NodeID, dir direction) Result {
	var s Search
	s.start(g, reverse, seeds, color, c, visited, ar, candidates, dir)
	return s.Finish(sink, ar)
}

// Search is one traversal that can pause between levels. Start
// readies it, Open runs its inline levels, and Finish runs the rest;
// Run's contract covers the whole.
type Search struct {
	g          *graph.Graph
	reverse    bool
	color      []int32
	c          int32
	visited    []uint32
	candidates []graph.NodeID
	dir        direction

	// frontier is the next level to expand, and next the buffer inline
	// levels fill; Start draws both from the arena and Finish returns
	// them. claimed counts the seeds and every node claimed so far.
	frontier, next []graph.NodeID
	seeds, claimed int
	levels         int
}

// Start readies s for a traversal with Run's arguments, marking the
// seeds in visited and drawing its frontier and next buffer from ar.
// Coordinator only.
func (s *Search) Start(g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, c int32, visited []uint32, ar *scratch.Arena, candidates []graph.NodeID) {
	s.start(g, reverse, seeds, color, c, visited, ar, candidates, adaptive)
}

func (s *Search) start(g *graph.Graph, reverse bool, seeds []graph.NodeID,
	color []int32, c int32, visited []uint32, ar *scratch.Arena, candidates []graph.NodeID, dir direction) {
	*s = Search{g: g, reverse: reverse, color: color, c: c, visited: visited,
		candidates: candidates, dir: dir, seeds: len(seeds), claimed: len(seeds)}
	mark(visited, seeds)
	s.frontier = append(ar.GetNodes(len(seeds)), seeds...)
	s.next = ar.GetNodes(0)
}

// Open runs s's levels on the calling goroutine for as long as each
// would run inline — top-down over at most inlineFrontier nodes — and
// pauses before the first that would not, or when the run is
// canceled. It touches no coordinator-only arena state, so two
// searches may Open at once, each on its own gang worker.
func (s *Search) Open(sink *events.Sink, ar *scratch.Arena) { s.loop(sink, ar, true) }

// Finish runs s's remaining levels with the per-level schedule,
// returns its buffers to ar and reports what the whole search claimed.
// The finished s holds nothing. Coordinator only.
func (s *Search) Finish(sink *events.Sink, ar *scratch.Arena) Result {
	s.loop(sink, ar, false)
	ar.PutNodes(s.frontier)
	ar.PutNodes(s.next)
	res := Result{Claimed: int64(s.claimed - s.seeds), Levels: s.levels}
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

// bottomUp reports whether the level expanding frontier sweeps the
// candidates bottom-up. claimed counts the seeds and every node claimed
// so far, so len(candidates)-claimed bounds what is left to claim. The
// frontier's edges are summed only for a level too large to run
// inline, where the sum is small next to the level's own work.
func (s *Search) bottomUp(frontier []graph.NodeID, claimed int) bool {
	switch {
	case len(s.candidates) == 0 || s.dir == forceTopDown:
		return false
	case s.dir == forceBottomUp:
		return true
	case len(frontier) <= inlineFrontier:
		return false
	}
	var edges int64
	for _, v := range frontier {
		if s.reverse {
			edges += int64(s.g.InDegree(v))
		} else {
			edges += int64(s.g.OutDegree(v))
		}
	}
	unclaimed := int64(len(s.candidates) - claimed)
	return edges*bottomUpAlpha > unclaimed*s.g.NumEdges()/int64(s.g.NumNodes())
}

// loop is the search's level loop. It runs until the frontier empties
// or the run is canceled; a solo call (Open) also stops before the
// first level that would not run inline, leaving that level as the
// frontier to resume from. The state lives in locals while the loop
// runs, so two searches opening side by side write their adjacent
// structs only once each.
func (s *Search) loop(sink *events.Sink, ar *scratch.Arena, solo bool) {
	workers := ar.Workers()
	ctr := ar.Counters()
	frontier, next, claimed, levels := s.frontier, s.next, s.claimed, s.levels
	var lists [][]graph.NodeID
	for len(frontier) > 0 {
		bottomUp := s.bottomUp(frontier, claimed)
		inline := !bottomUp && len(frontier) <= inlineFrontier
		if (solo && !inline) || sink.Err() != nil {
			break
		}
		levels++
		ctr.AddBFSLevel(int64(len(frontier)), bottomUp)
		sink.Emit(events.Event{Type: events.BFSLevel, Round: levels, Frontier: len(frontier)})
		switch {
		case inline || workers == 1:
			// The level runs on the calling goroutine, the only one
			// touching visited, so it claims as it goes; its output
			// becomes the frontier by a swap.
			ar.Chaos().Hit(chaos.SiteBFS)
			if bottomUp {
				next = sweepRange(s.g, s.reverse, s.candidates, 0, len(s.candidates), s.color, s.c, s.visited, next[:0])
			} else {
				next = expandSolo(s.g, s.reverse, frontier, s.color, s.c, s.visited, next[:0])
			}
			frontier, next = next, frontier
		default:
			if lists == nil {
				lists = ar.GetLists()
			}
			// Dynamic chunks: top-down frontier nodes vary wildly in
			// degree on scale-free graphs (§4.3), while most bottom-up
			// candidates cost one bitmap load, hence the larger chunk.
			k := scratch.Keep[level](ar)
			body := k.body
			if body == nil {
				body = k.chunk
			}
			*k = level{Search: *s, bottomUp: bottomUp, nodes: frontier, lists: lists, inj: ar.Chaos(), body: body}
			chunk := 64
			if bottomUp {
				k.nodes, chunk = s.candidates, 512
			}
			ar.ForDynamic(len(k.nodes), chunk, body)
			*k = level{body: body}
			// Level barrier: the per-worker buffers become the new
			// frontier. A sweep's are its claims, marked here; top-down
			// ones are claimed here, which drops their duplicates.
			frontier = frontier[:0]
			for w := range lists {
				if bottomUp {
					frontier = append(frontier, lists[w]...)
				} else {
					frontier = claim(lists[w], s.color, s.c, s.visited, frontier)
				}
				lists[w] = lists[w][:0]
			}
		}
		if bottomUp {
			mark(s.visited, frontier)
		}
		claimed += len(frontier)
	}
	if lists != nil {
		ar.PutLists(lists)
	}
	s.frontier, s.next, s.claimed, s.levels = frontier, next, claimed, levels
}

// level is the parallel levels' dispatch state, kept on the arena (see
// scratch.Keep): the inputs of the level in flight, beside a copy of
// its Search — a body bound to the Search itself would make a Search on
// the caller's stack escape — and the level body, bound once as a
// method value, so a parallel level allocates nothing. nodes is the
// frontier of a top-down level and the candidates of a bottom-up one.
// Parallel levels run only on the coordinator, one at a time, and the
// inputs are cleared at each level's barrier, so the arena keeps no
// buffer of the search between levels.
type level struct {
	Search
	bottomUp bool
	nodes    []graph.NodeID
	lists    [][]graph.NodeID
	inj      *chaos.Injector
	body     func(w, lo, hi int)
}

// chunk is a parallel level's body over nodes[lo:hi]: expandRange
// top-down, sweepRange bottom-up. Its first chunk hits the BFS site,
// once per level from inside the dispatch. The worker's claims go to
// its list once per chunk: per-item writes there would bounce the
// cache line the workers' adjacent list headers share.
func (k *level) chunk(w, lo, hi int) {
	if lo == 0 {
		k.inj.Hit(chaos.SiteBFS)
	}
	if k.bottomUp {
		k.lists[w] = sweepRange(k.g, k.reverse, k.nodes, lo, hi, k.color, k.c, k.visited, k.lists[w])
	} else {
		k.lists[w] = expandRange(k.g, k.reverse, k.nodes, lo, hi, k.color, k.c, k.visited, k.lists[w])
	}
}

// expandSolo expands a whole frontier on one goroutine, the only one
// touching visited, claiming each frontier node's neighbors with claim.
func expandSolo(g *graph.Graph, reverse bool, frontier []graph.NodeID,
	color []int32, c int32, visited []uint32, buf []graph.NodeID) []graph.NodeID {
	for _, v := range frontier {
		if reverse {
			buf = claim(g.In(v), color, c, visited, buf)
		} else {
			buf = claim(g.Out(v), color, c, visited, buf)
		}
	}
	return buf
}

// claim appends to buf each node of nodes that is admissible — of
// color c with its bit clear — setting its bit, so a node listed twice
// is claimed once. It runs on the one goroutine touching visited. Every
// node is stored at the end of buf and kept by advancing buf's length
// by its claim bit, so the loop does not branch on the visited test,
// which a BFS over a partly visited neighborhood mispredicts about as
// often as not.
func claim(nodes []graph.NodeID, color []int32, c int32, visited []uint32, buf []graph.NodeID) []graph.NodeID {
	buf = slices.Grow(buf, len(nodes))
	k, out := len(buf), buf[:cap(buf)]
	for _, t := range nodes {
		sh := uint32(t) & 31
		word := visited[t>>5]
		// d|-d has its sign bit set iff d != 0, that is, iff t lies
		// outside the partition.
		d := color[t] ^ c
		bit := (^word >> sh) & 1 &^ (uint32(d|-d) >> 31)
		visited[t>>5] = word | bit<<sh
		out[k] = t
		k += int(bit)
	}
	return out[:k]
}

// expandRange is the parallel top-down body over frontier[lo:hi]: it
// gathers the admissible neighbors, duplicates included, and writes no
// bit; the level loop then claims the gathered lists with claim on one
// goroutine. Setting bits from several workers moves the bitmap's
// cache lines between their cores on every claim: claiming that way, a
// parallel top-down level of the flickr analog ran slower than on one
// worker (EXPERIMENTS.md). Testing colors here, in parallel, rather
// than only in claim keeps other partitions' nodes out of the lists.
func expandRange(g *graph.Graph, reverse bool, frontier []graph.NodeID, lo, hi int,
	color []int32, c int32, visited []uint32, buf []graph.NodeID) []graph.NodeID {
	for _, v := range frontier[lo:hi] {
		var nbrs []graph.NodeID
		if reverse {
			nbrs = g.In(v)
		} else {
			nbrs = g.Out(v)
		}
		for _, t := range nbrs {
			if !Visited(visited, t) && color[t] == c {
				buf = append(buf, t)
			}
		}
	}
	return buf
}

// sweepRange is the bottom-up counterpart of expandRange over
// candidates[lo:hi]: each unclaimed candidate of the partition scans its
// traversal parents (out-neighbors for a reverse traversal, in-neighbors
// for a forward one) and is claimed at the first visited one. Like
// expandRange it writes no bit, for the same reason: each candidate is
// listed once, so it cannot be claimed twice, and the level loop marks
// the claims once the sweep is done. Parents are thus tested against
// the bitmap as the level found it, so the level count does not depend
// on the schedule.
func sweepRange(g *graph.Graph, reverse bool, candidates []graph.NodeID, lo, hi int,
	color []int32, c int32, visited []uint32, buf []graph.NodeID) []graph.NodeID {
	for _, u := range candidates[lo:hi] {
		if Visited(visited, u) || color[u] != c {
			continue
		}
		var parents []graph.NodeID
		if reverse {
			parents = g.Out(u)
		} else {
			parents = g.In(u)
		}
		for _, p := range parents {
			if Visited(visited, p) {
				buf = append(buf, u)
				break
			}
		}
	}
	return buf
}
