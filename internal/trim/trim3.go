package trim

import (
	"sync/atomic"

	"repro/graph"
	"repro/internal/events"
	"repro/internal/parallel"
	"repro/internal/scratch"
)

// Par3 runs a single parallel pass detecting size-3 SCCs — the natural
// extension of the paper's Trim2 (§3.4) one step further. It targets
// strict 3-cycles {a,b,c} where, within the partition, either every
// member has exactly one incoming edge (so no larger cycle can enter)
// or every member has exactly one outgoing edge (so no larger cycle
// can leave). Like Trim2 it is applied once: each additional trim
// order costs more neighbor probing for a geometrically shrinking
// population of components (the ablation BenchmarkAblationTrim3
// measures exactly this diminishing return).
func Par3(sink *events.Sink, g *graph.Graph, workers int, color, comp []int32, candidates []graph.NodeID, ar *scratch.Arena) (Result, []graph.NodeID) {
	ownCandidates := false
	if candidates == nil {
		candidates = allCandidates(g, ar)
		ownCandidates = true
	}
	if workers < 1 {
		workers = parallel.DefaultWorkers()
	}
	survivors := ar.GetNodes(len(candidates))
	if sink.Err() != nil {
		survivors = append(survivors, candidates...)
		if ownCandidates {
			ar.PutNodes(candidates)
		}
		return Result{}, survivors
	}
	ctr := ar.Counters()
	res := Result{Rounds: 1}
	if workers == 1 {
		res.SCCs = trim3Range(g, color, comp, candidates, 0, len(candidates), &survivors)
	} else {
		bufs := ar.GetLists(workers)
		counts := ar.Counts(workers)
		cand := candidates
		ar.ForDynamic(workers, len(cand), 128, func(w, lo, hi int) {
			counts[w] += trim3Range(g, color, comp, cand, lo, hi, &bufs[w])
		})
		for w := range bufs {
			survivors = append(survivors, bufs[w]...)
			res.SCCs += counts[w]
		}
		ar.PutLists(bufs)
	}
	survivors = dropRemoved(color, survivors)
	res.Removed = 3 * res.SCCs
	ctr.AddTrimRound(res.Removed)
	sink.Emit(events.Event{Type: events.TrimRound, Round: 1, Nodes: res.Removed})
	if ownCandidates {
		ar.PutNodes(candidates)
	}
	return res, survivors
}

// trim3Range applies the Trim3 pass to candidates[lo:hi], appending
// survivors to *buf and returning the number of triangles claimed.
func trim3Range(g *graph.Graph, color, comp []int32, candidates []graph.NodeID, lo, hi int, buf *[]graph.NodeID) int64 {
	var tris int64
	for i := lo; i < hi; i++ {
		v := candidates[i]
		c := atomic.LoadInt32(&color[v])
		if c == Removed {
			continue
		}
		if a, b, ok := trim3Cycle(g, color, v, c); ok {
			// Only the minimum member claims, so each triangle is
			// claimed at most once.
			if v < a && v < b {
				if claimTriple(color, comp, v, a, b, c) {
					tris++
					continue
				}
			}
			if atomic.LoadInt32(&color[v]) == Removed {
				continue
			}
		}
		*buf = append(*buf, v)
	}
	return tris
}

// trim3Cycle checks whether v sits on a detectable strict 3-cycle and
// returns the other two members.
func trim3Cycle(g *graph.Graph, color []int32, v graph.NodeID, c int32) (graph.NodeID, graph.NodeID, bool) {
	// Pattern (a): chase sole in-neighbors v ← a ← b ← v.
	if in, _ := aliveDegrees(g, color, v, c); in == 1 {
		a := soleNeighbor(g.In(v), color, v, c)
		if a >= 0 {
			if ina, _ := aliveDegrees(g, color, a, c); ina == 1 {
				b := soleNeighbor(g.In(a), color, a, c)
				if b >= 0 && b != v {
					if inb, _ := aliveDegrees(g, color, b, c); inb == 1 {
						if soleNeighbor(g.In(b), color, b, c) == v {
							return a, b, true
						}
					}
				}
			}
		}
	}
	// Pattern (b): chase sole out-neighbors v → a → b → v.
	if _, out := aliveDegrees(g, color, v, c); out == 1 {
		a := soleNeighbor(g.Out(v), color, v, c)
		if a >= 0 {
			if _, outa := aliveDegrees(g, color, a, c); outa == 1 {
				b := soleNeighbor(g.Out(a), color, a, c)
				if b >= 0 && b != v {
					if _, outb := aliveDegrees(g, color, b, c); outb == 1 {
						if soleNeighbor(g.Out(b), color, b, c) == v {
							return a, b, true
						}
					}
				}
			}
		}
	}
	return -1, -1, false
}

// claimTriple atomically claims the triangle {a,b,c3} (ascending-id
// CAS order with rollback), recording the minimum id as representative.
func claimTriple(color, comp []int32, v, a, b graph.NodeID, c int32) bool {
	ids := [3]graph.NodeID{v, a, b}
	// Insertion-sort three elements.
	if ids[0] > ids[1] {
		ids[0], ids[1] = ids[1], ids[0]
	}
	if ids[1] > ids[2] {
		ids[1], ids[2] = ids[2], ids[1]
	}
	if ids[0] > ids[1] {
		ids[0], ids[1] = ids[1], ids[0]
	}
	for i, id := range ids {
		if !atomic.CompareAndSwapInt32(&color[id], c, Removed) {
			for j := 0; j < i; j++ {
				atomic.StoreInt32(&color[ids[j]], c)
			}
			return false
		}
	}
	rep := int32(ids[0])
	for _, id := range ids {
		comp[id] = rep
	}
	return true
}
