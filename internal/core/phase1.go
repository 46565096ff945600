package core

import (
	"sync/atomic"

	"repro/graph"
	"repro/internal/bfs"
	"repro/internal/parallel"
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
		// Claim the pivot into the FW set, then run the forward sweep.
		if !atomic.CompareAndSwapInt32(&e.color[pivot], c, cfw) {
			e.ar.PutNodes(members)
			continue // pivot raced away (cannot happen single-threaded here; defensive)
		}
		// The transition tables and the one-element seed slice live in
		// engine-resident arrays (fwTrans/bwTrans/seedBuf), so building
		// them per trial allocates nothing.
		e.seedBuf[0] = pivot
		seeds := e.seedBuf[:]
		e.fwTrans[0] = bfs.Transition{From: c, To: cfw}
		fwRes := bfs.Run(e.sink, e.g, e.opt.Workers, false, seeds, e.color, e.fwTrans[:], e.ar, members...)
		// Backward sweep: unvisited partition nodes become BW; nodes
		// already in FW are the SCC (Lemma 1: FW ∩ BW).
		atomic.StoreInt32(&e.color[pivot], cscc)
		e.bwTrans[0] = bfs.Transition{From: c, To: cbw}
		e.bwTrans[1] = bfs.Transition{From: cfw, To: cscc}
		bwRes := bfs.Run(e.sink, e.g, e.opt.Workers, true, seeds, e.color, e.bwTrans[:], e.ar, members...)
		e.ar.PutNodes(members)
		if e.stopped() {
			// The backward sweep may have been cut short; the partial
			// coloring is unusable for SCC publication, so unwind
			// without claiming anything. The whole Result is discarded
			// by Engine.Run.
			return alive
		}
		e.res.Phase1Levels += fwRes.Levels + bwRes.Levels
		e.res.Phases[PhaseParFWBW].Rounds += fwRes.Levels + bwRes.Levels

		sccSize := bwRes.Claimed[1] + 1 // + pivot
		// Publish the SCC: every cscc node is marked removed with the
		// pivot as representative. The single-worker loop is spelled
		// out (not a workers==1 ForRange) so no publication closure is
		// ever built on the zero-allocation path.
		if e.opt.Workers == 1 {
			for _, v := range alive {
				if atomic.LoadInt32(&e.color[v]) == cscc {
					e.comp[v] = int32(pivot)
					atomic.StoreInt32(&e.color[v], Removed)
				}
			}
		} else {
			// pub shadows alive: capturing the reassigned loop variable
			// directly would box it at function entry on every call,
			// single-worker runs included.
			pub := alive
			parallel.ForRange(e.opt.Workers, len(pub), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					v := pub[i]
					if atomic.LoadInt32(&e.color[v]) == cscc {
						e.comp[v] = int32(pivot)
						atomic.StoreInt32(&e.color[v], Removed)
					}
				}
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

// largestPartition returns the most populous color among alive nodes
// together with its members — the partition most likely to contain the
// giant SCC for the next trial. The histogram map is retained on the
// engine (cleared per call) and the member list is arena-owned; the
// caller releases it with PutNodes after the trial.
func (e *engine) largestPartition(alive []graph.NodeID) (int32, []graph.NodeID) {
	if e.partCounts == nil {
		e.partCounts = make(map[int32]int, 8)
	} else {
		clear(e.partCounts)
	}
	counts := e.partCounts
	for _, v := range alive {
		counts[e.color[v]]++
	}
	best, bestN := int32(0), -1
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	members := e.ar.GetNodes(bestN)
	for _, v := range alive {
		if e.color[v] == best {
			members = append(members, v)
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
