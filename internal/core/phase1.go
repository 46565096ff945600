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

		cfw, cbw, cscc := e.newColor(), e.newColor(), e.newColor()
		// The pivot is in both sets, so it starts as SCC.
		if !atomic.CompareAndSwapInt32(&e.color[pivot], c, cscc) {
			e.ar.PutNodes(members)
			continue // pivot raced away (cannot happen single-threaded here; defensive)
		}
		levels, sccSize := e.searchFWBW(pivot, members, c, cfw, cbw, cscc)
		e.ar.PutNodes(members)
		if e.stopped() {
			// A search may have been cut short; the partial coloring is
			// unusable for SCC publication, so unwind without claiming
			// anything. The whole Result is discarded by Engine.Run.
			return alive
		}
		e.res.Phase1Levels += levels
		e.res.Phases[PhaseParFWBW].Rounds += levels

		// Publish the SCC: every cscc node is marked removed with the
		// pivot as representative. The single-worker loop is spelled
		// out (not a single-worker gang dispatch) so no publication
		// closure is ever built on the zero-allocation path.
		if e.ar.Workers() == 1 {
			publishRange(e.color, e.comp, alive, cscc, pivot)
		} else {
			// pub shadows alive: capturing the reassigned loop variable
			// directly would box it at function entry on every call,
			// single-worker runs included. Every node costs one color
			// load, hence the large chunk.
			pub := alive
			e.ar.ForDynamic(len(pub), 4096, func(_, lo, hi int) {
				publishRange(e.color, e.comp, pub[lo:hi], cscc, pivot)
			})
		}
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
// pivot, already colored cscc, over the members of partition c, and
// returns their total level count and the size of the pivot's SCC.
// Each search claims unvisited partition nodes into its own set and
// the other search's nodes into the SCC (Lemma 1: FW ∩ BW), so
// whichever reaches a node second writes cscc, the two need no order,
// and the SCC is both searches' cscc claims plus the pivot.
//
// At two or more workers the gang's first two workers run the two
// searches' small levels at the same time (the opening), each pausing
// at its first level too large to run inline; the coordinator then
// finishes the forward search and then the backward one, so large
// levels keep the whole gang. One worker runs the forward search to
// the end before the backward one starts.
func (e *engine) searchFWBW(pivot graph.NodeID, members []graph.NodeID, c, cfw, cbw, cscc int32) (levels int, sccSize int64) {
	// The transition tables and the one-element seed slice live in
	// engine-resident arrays (fwTrans/bwTrans/seedBuf), so building
	// them per trial allocates nothing.
	e.seedBuf[0] = pivot
	seeds := e.seedBuf[:]
	e.fwTrans = [2]bfs.Transition{{From: c, To: cfw}, {From: cbw, To: cscc}}
	e.bwTrans = [2]bfs.Transition{{From: c, To: cbw}, {From: cfw, To: cscc}}
	opening := e.ar.Workers() > 1
	e.fw.Start(e.g, false, seeds, e.color, e.fwTrans[:], e.ar, members)
	if opening {
		e.bw.Start(e.g, true, seeds, e.color, e.bwTrans[:], e.ar, members)
		if e.openFn == nil {
			e.openFn = e.openSearches
		}
		e.ar.Gang().Run(e.openFn)
	}
	fw := e.fw.Finish(e.sink, e.ar)
	if !opening {
		e.bw.Start(e.g, true, seeds, e.color, e.bwTrans[:], e.ar, members)
	}
	bw := e.bw.Finish(e.sink, e.ar)
	return fw.Levels + bw.Levels, fw.Claimed[1] + bw.Claimed[1] + 1
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

// publishRange marks every node of nodes colored cscc as removed, with
// the pivot as its SCC representative.
func publishRange(color, comp []int32, nodes []graph.NodeID, cscc int32, pivot graph.NodeID) {
	for _, v := range nodes {
		if atomic.LoadInt32(&color[v]) == cscc {
			comp[v] = int32(pivot)
			atomic.StoreInt32(&color[v], Removed)
		}
	}
}

// largestPartition returns the most populous color among alive nodes
// together with its members — the partition most likely to contain the
// giant SCC for the next trial. The lowest color wins a tie, so a
// fixed Seed fixes the trial sequence. The histogram is the engine's
// retained per-color slice; the member list is arena-owned, and the
// caller releases it with PutNodes after the trial.
func (e *engine) largestPartition(alive []graph.NodeID) (int32, []graph.NodeID) {
	counts := e.perColor(0)
	for _, v := range alive {
		counts[e.color[v]]++
	}
	best := 0
	for c, n := range counts {
		if n > counts[best] {
			best = c
		}
	}
	members := e.ar.GetNodes(int(counts[best]))
	for _, v := range alive {
		if e.color[v] == int32(best) {
			members = append(members, v)
		}
	}
	return int32(best), members
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
