package core

import (
	"sync/atomic"

	"repro/graph"
	"repro/internal/bfs"
)

// parFWBW is the data-parallel FW-BW step of §3.2 (the Par-FWBW kernel
// of Algorithm 6): repeated parallel-BFS FW-BW trials on the largest
// remaining partition until an SCC containing at least GiantThreshold
// of the graph's nodes is found, or MaxPhase1Trials trials elapse.
// alive is the current list of unidentified nodes; the filtered
// survivor list is returned.
func (e *engine) parFWBW(alive []graph.NodeID) []graph.NodeID {
	n := e.g.NumNodes()
	threshold := int64(e.opt.GiantThreshold * float64(n))
	if threshold < 1 {
		threshold = 1
	}
	for trial := 0; trial < e.opt.MaxPhase1Trials && len(alive) > 0; trial++ {
		if e.stopped() {
			return alive
		}
		e.res.Phase1Trials++
		c, members := e.largestPartition(alive)
		if len(members) == 0 {
			e.ar.PutNodes(members)
			break
		}
		pivot := e.choosePivot(members)
		levels := e.searchFWBW(pivot, members, c)
		if e.stopped() {
			// A search may have been cut short; its bitmap is unusable
			// for publication, so unwind without claiming anything. The
			// whole Result is discarded by Engine.Run.
			e.ar.PutNodes(members)
			return alive
		}
		e.res.Phase1Levels += levels
		e.res.Phases[PhaseParFWBW].Rounds += levels
		sccSize := e.publish(pivot, members)
		e.ar.PutNodes(members)
		e.res.Phases[PhaseParFWBW].Nodes += sccSize
		e.res.Phases[PhaseParFWBW].SCCs++
		if sccSize > e.res.GiantSCC {
			e.res.GiantSCC = sccSize
		}
		alive = filterAlive(e.color, alive)
		if sccSize >= threshold {
			break
		}
	}
	return alive
}

// searchFWBW runs one trial's forward and backward searches from the
// pivot over the members of partition c and returns their total level
// count. Each search claims into its own bitmap (the engine's fwBits
// and bwBits, cleared here), and neither writes a color, so the two
// need no order and no claim protocol; publish then reads FW ∩ BW,
// the pivot's SCC (Lemma 1), off the two bitmaps.
//
// At two or more workers the gang's first two workers run the two
// searches' small levels at the same time (the opening), each pausing
// at its first level too large to run inline; the coordinator then
// finishes the forward search and then the backward one, so large
// levels keep the whole gang. One worker runs the forward search to
// the end before the backward one starts.
func (e *engine) searchFWBW(pivot graph.NodeID, members []graph.NodeID, c int32) (levels int) {
	// The one-element seed slice lives in an engine-resident array, so
	// building it per trial allocates nothing.
	e.seedBuf[0] = pivot
	seeds := e.seedBuf[:]
	e.fwBits, e.bwBits = e.ar.Bitmaps(e.g.NumNodes())
	clear(e.fwBits)
	clear(e.bwBits)
	opening := e.ar.Workers() > 1
	e.fw.Start(e.g, false, seeds, e.color, c, e.fwBits, e.ar, members)
	if opening {
		e.bw.Start(e.g, true, seeds, e.color, c, e.bwBits, e.ar, members)
		if e.openFn == nil {
			e.openFn = e.openSearches
		}
		e.ar.Gang().Run(e.openFn)
	}
	fw := e.fw.Finish(e.sink, e.ar)
	if !opening {
		e.bw.Start(e.g, true, seeds, e.color, c, e.bwBits, e.ar, members)
	}
	bw := e.bw.Finish(e.sink, e.ar)
	return fw.Levels + bw.Levels
}

// openSearches is the phase-1 opening's gang body: worker 0 opens the
// forward search and worker 1 the backward one; other workers return at
// once. It reads its searches from the engine, so the bound e.openFn
// survives across trials and runs.
func (e *engine) openSearches(w int) {
	switch w {
	case 0:
		e.fw.Open(e.sink, e.ar)
	case 1:
		e.bw.Open(e.sink, e.ar)
	}
}

// publish turns a trial's two bitmaps into colors in one pass over the
// partition's members: FW ∩ BW is marked removed with the pivot as its
// SCC representative, FW only takes a fresh color and BW only another,
// and unreached members keep the partition's color. It returns the
// SCC's size. The pass runs on the gang through the bound e.pubFn, one
// worker inline, and each chunk adds its SCC count to its worker's slot
// once.
func (e *engine) publish(pivot graph.NodeID, members []graph.NodeID) int64 {
	e.pubNodes, e.pubPivot = members, pivot
	e.cfw, e.cbw = e.newColor(), e.newColor()
	e.pubCounts = e.ar.Counts()
	if e.pubFn == nil {
		e.pubFn = e.publishRange
	}
	// Every member costs two bitmap loads, hence the large chunk.
	e.ar.ForDynamic(len(members), 4096, e.pubFn)
	var size int64
	for _, k := range e.pubCounts {
		size += k
	}
	return size
}

// publishRange is publish's body over e.pubNodes[lo:hi]. No other
// worker reads or writes these members' colors during the pass.
func (e *engine) publishRange(w, lo, hi int) {
	var scc int64
	for _, v := range e.pubNodes[lo:hi] {
		fw, bw := bfs.Visited(e.fwBits, v), bfs.Visited(e.bwBits, v)
		switch {
		case fw && bw:
			e.comp[v] = int32(e.pubPivot)
			e.color[v] = Removed
			scc++
		case fw:
			e.color[v] = e.cfw
		case bw:
			e.color[v] = e.cbw
		}
	}
	e.pubCounts[w] += scc
}

// largestPartition returns the most populous color among alive nodes
// together with its members — the partition most likely to contain the
// giant SCC for the next trial. The lowest color wins a tie, and the
// members are gathered in ascending node order by a scan of the color
// array (every node outside alive is Removed), not in alive's order,
// which follows the parallel trim's schedule; so a fixed Seed fixes
// the pivots and the trial sequence at any worker count. Until the
// first trial hands out a color every alive node has color 0, and the
// histogram, the engine's retained per-color slice, is skipped. The
// member list is arena-owned, and the caller releases it with PutNodes
// after the trial.
func (e *engine) largestPartition(alive []graph.NodeID) (int32, []graph.NodeID) {
	best, size := int32(0), len(alive)
	if e.nextColor.Load() > 0 {
		counts := e.perColor(0)
		for _, v := range alive {
			counts[e.color[v]]++
		}
		for c, n := range counts {
			if n > counts[best] {
				best = int32(c)
			}
		}
		size = int(counts[best])
	}
	members := e.ar.GetNodes(size)
	for v, c := range e.color {
		if c == best {
			members = append(members, graph.NodeID(v))
		}
	}
	return best, members
}

// choosePivot picks a phase-1 pivot from the candidate set: the node
// with the largest in×out degree product among PivotSample random
// candidates. High-degree nodes of small-world graphs sit in the giant
// SCC with overwhelming probability, so this heuristic usually finds
// the giant SCC in the first trial; PivotSample=1 degenerates to the
// paper's uniform-random pivot.
func (e *engine) choosePivot(candidates []graph.NodeID) graph.NodeID {
	sample := e.opt.PivotSample
	if sample > len(candidates) {
		sample = len(candidates)
	}
	best := candidates[int(e.rand64()%uint64(len(candidates)))]
	bestScore := int64(-1)
	for i := 0; i < sample; i++ {
		v := candidates[int(e.rand64()%uint64(len(candidates)))]
		score := (int64(e.g.InDegree(v)) + 1) * (int64(e.g.OutDegree(v)) + 1)
		if score > bestScore {
			best, bestScore = v, score
		}
	}
	return best
}

// filterAlive drops removed nodes from the alive list.
func filterAlive(color []int32, alive []graph.NodeID) []graph.NodeID {
	out := alive[:0]
	for _, v := range alive {
		if atomic.LoadInt32(&color[v]) != Removed {
			out = append(out, v)
		}
	}
	return out
}
