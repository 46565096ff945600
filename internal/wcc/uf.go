package wcc

import (
	"slices"
	"sync/atomic"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/scratch"
)

// sampleNeighbors is the Afforest sampling width: the first k
// out-neighbors each node hooks in the sampling pass. Jain et al.
// observe k=2 already connects the bulk of a skewed component
// structure.
const sampleNeighbors = 2

// rootSampleCap bounds the strided root sample used to detect the
// most frequent component between the sampling and full passes.
const rootSampleCap = 1024

// RunUF is the work-efficient replacement for Run: a lock-free
// union-find in the style of Jain et al.'s Afforest instead of
// min-label propagation rounds. The parent forest lives directly in
// the label array (union by minimum representative + path halving, so
// parent[x] <= x always and every root is its component's minimum
// node id). Three barrier passes: a sampling pass hooks each node's
// first few out-neighbors, a full pass hooks all remaining same-color
// edges while skipping nodes already absorbed into the most frequent
// sampled component, and a flatten pass leaves label[v] equal to v's
// component-minimum node id — byte-identical labels to Run, without
// Run's O(diameter) propagation rounds.
//
// The contract is Run's: same arguments, same label semantics, one
// WCCRound event per pass, cancellation polled at pass boundaries.
// Result.Rounds is the constant pass count. Like Run, every alive
// same-color neighbor of a processed node must itself be in nodes.
func RunUF(sink *events.Sink, g *graph.Graph, color []int32, nodes []graph.NodeID, label []int32, ar *scratch.Arena) Result {
	if len(nodes) == 0 {
		// Nothing to union (a fully trimmed graph): skip the passes and
		// their scratch draws entirely.
		return Result{}
	}
	ctr := ar.Counters()
	for _, v := range nodes {
		label[v] = int32(v)
	}
	var res Result
	single := ar.Workers() == 1
	inj := ar.Chaos()
	// Per-worker counter rows in ufTally's layout, added to once per
	// chunk and folded into the run counters once per pass.
	m := ar.ClaimMatrix(3)

	// Pass 1: sampling. Hooking just the first couple of out-neighbors
	// connects the giant components almost entirely.
	if sink.Err() != nil {
		return ufFinish(&res, nodes, label)
	}
	res.Rounds++
	ctr.AddWCCRound()
	sink.Emit(events.Event{Type: events.WCCRound, Round: res.Rounds})
	if single {
		ar.Chaos().Hit(chaos.SiteWCC)
		ar.Chaos().Hit(chaos.SiteUF)
		ufSampleRange(g, color, nodes, label, 0, len(nodes)).addTo(m[0])
	} else {
		ar.ForDynamic(len(nodes), 128, func(w, lo, hi int) {
			if lo == 0 {
				inj.Hit(chaos.SiteWCC)
			}
			inj.Hit(chaos.SiteUF)
			ufSampleRange(g, color, nodes, label, lo, hi).addTo(m[w])
		})
	}
	ufFoldPass(ctr, m)

	// Most-frequent-component detection: a strided root sample, sorted;
	// the longest run's root is the component the full pass skips.
	skip, hops := ufSkipRoot(nodes, label, ar)
	m[0][1] += hops

	// Pass 2: full. Nodes already in the skip component contribute no
	// new connectivity their neighbors won't also see — every edge with
	// at least one unskipped endpoint is hooked from that endpoint, and
	// an edge with both endpoints skipped is already intra-component.
	if sink.Err() != nil {
		return ufFinish(&res, nodes, label)
	}
	res.Rounds++
	ctr.AddWCCRound()
	sink.Emit(events.Event{Type: events.WCCRound, Round: res.Rounds})
	if single {
		ar.Chaos().Hit(chaos.SiteWCC)
		ar.Chaos().Hit(chaos.SiteUF)
		ufFullRange(g, color, nodes, label, skip, 0, len(nodes)).addTo(m[0])
	} else {
		ar.ForDynamic(len(nodes), 128, func(w, lo, hi int) {
			if lo == 0 {
				inj.Hit(chaos.SiteWCC)
			}
			inj.Hit(chaos.SiteUF)
			ufFullRange(g, color, nodes, label, skip, lo, hi).addTo(m[w])
		})
	}
	ufFoldPass(ctr, m)

	// Pass 3: flatten. All unions are done, so every root is final and
	// label[v] becomes the component minimum.
	if sink.Err() != nil {
		return ufFinish(&res, nodes, label)
	}
	res.Rounds++
	ctr.AddWCCRound()
	sink.Emit(events.Event{Type: events.WCCRound, Round: res.Rounds})
	if single {
		ar.Chaos().Hit(chaos.SiteWCC)
		ufFlattenRange(nodes, label, 0, len(nodes)).addTo(m[0])
	} else {
		ar.ForDynamic(len(nodes), 512, func(w, lo, hi int) {
			if lo == 0 {
				inj.Hit(chaos.SiteWCC)
			}
			ufFlattenRange(nodes, label, lo, hi).addTo(m[w])
		})
	}
	ufFoldPass(ctr, m)

	return ufFinish(&res, nodes, label)
}

// ufFinish counts the components (a root labels itself) and returns.
func ufFinish(res *Result, nodes []graph.NodeID, label []int32) Result {
	for _, v := range nodes {
		if label[v] == int32(v) {
			res.Components++
		}
	}
	return *res
}

// ufTally is one chunk's union-find work: successful hooks, find hops
// and nodes the full pass skipped. Range bodies count in a local tally
// and return it; the call site adds it to the worker's counter row
// [unions, hops, skips] once per chunk, because the rows share cache
// lines and a write per hop would bounce them between the cores.
type ufTally struct {
	unions, hops, skips int64
}

// addTo adds the tally into a worker's counter row.
func (t ufTally) addTo(row []int64) {
	row[0] += t.unions
	row[1] += t.hops
	row[2] += t.skips
}

// ufFoldPass adds the per-worker pass counters into the run counters
// and re-zeroes the rows for the next pass.
func ufFoldPass(ctr *metrics.Counters, m [][]int64) {
	var unions, hops, skips int64
	for w := range m {
		unions += m[w][0]
		hops += m[w][1]
		skips += m[w][2]
		m[w][0], m[w][1], m[w][2] = 0, 0, 0
	}
	ctr.AddUFPass(unions, hops, skips)
}

// ufSkipRoot returns the most frequent root among a strided sample of
// the nodes, or -1 when the sample is empty, and the find hops it
// walked. Serial: the sample is tiny by construction.
func ufSkipRoot(nodes []graph.NodeID, label []int32, ar *scratch.Arena) (skip int32, hops int64) {
	if len(nodes) == 0 {
		return -1, 0
	}
	step := len(nodes)/rootSampleCap + 1
	roots := ar.GetNodes(rootSampleCap)
	for i := 0; i < len(nodes); i += step {
		r, h := find(label, int32(nodes[i]))
		roots = append(roots, graph.NodeID(r))
		hops += h
	}
	slices.Sort(roots)
	best, bestLen := roots[0], 1
	run := 1
	for i := 1; i < len(roots); i++ {
		if roots[i] == roots[i-1] {
			run++
		} else {
			run = 1
		}
		if run > bestLen {
			best, bestLen = roots[i], run
		}
	}
	ar.PutNodes(roots)
	return int32(best), hops
}

// find returns the root of x and the parent-pointer hops it walked,
// with path halving: each visited node's parent pointer jumps to its
// grandparent. Parents only ever decrease (union by minimum), so the
// lock-free CAS is monotone-safe and a lost race just means someone
// lowered the pointer further.
func find(label []int32, x int32) (root int32, hops int64) {
	for {
		p := atomic.LoadInt32(&label[x])
		if p == x {
			return x, hops
		}
		hops++
		gp := atomic.LoadInt32(&label[p])
		if gp == p {
			return p, hops
		}
		atomic.CompareAndSwapInt32(&label[x], p, gp)
		x = gp
	}
}

// union hooks the larger of the two roots under the smaller (union by
// minimum representative): the component minimum can never be hooked,
// so at fixpoint every tree's root is its component's minimum node id
// — the exact labels min-label propagation converges to. It returns the
// hooks it made (0 or 1) and the hops its finds walked.
func union(label []int32, a, b int32) (unions, hops int64) {
	for {
		ra, ha := find(label, a)
		rb, hb := find(label, b)
		hops += ha + hb
		if ra == rb {
			return 0, hops
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		if atomic.CompareAndSwapInt32(&label[rb], rb, ra) {
			return 1, hops
		}
		// Lost the race: rb is no longer a root. Retry from the roots.
		a, b = ra, rb
	}
}

// ufSampleRange hooks each node of nodes[lo:hi] with its first
// sampleNeighbors same-color out-neighbors.
func ufSampleRange(g *graph.Graph, color []int32, nodes []graph.NodeID, label []int32, lo, hi int) (t ufTally) {
	for i := lo; i < hi; i++ {
		v := nodes[i]
		c := color[v]
		cnt := 0
		for _, k := range g.Out(v) {
			if k == v || color[k] != c {
				continue
			}
			u, h := union(label, int32(v), int32(k))
			t.unions += u
			t.hops += h
			cnt++
			if cnt == sampleNeighbors {
				break
			}
		}
	}
	return t
}

// ufFullRange hooks every same-color edge of the unskipped nodes of
// nodes[lo:hi], both directions, so each edge is seen from either
// endpoint unless both are already in the skip component.
func ufFullRange(g *graph.Graph, color []int32, nodes []graph.NodeID, label []int32, skip int32, lo, hi int) (t ufTally) {
	for i := lo; i < hi; i++ {
		v := nodes[i]
		if skip >= 0 {
			r, h := find(label, int32(v))
			t.hops += h
			if r == skip {
				t.skips++
				continue
			}
		}
		c := color[v]
		for _, k := range g.Out(v) {
			if k != v && color[k] == c {
				u, h := union(label, int32(v), int32(k))
				t.unions += u
				t.hops += h
			}
		}
		for _, k := range g.In(v) {
			if k != v && color[k] == c {
				u, h := union(label, int32(v), int32(k))
				t.unions += u
				t.hops += h
			}
		}
	}
	return t
}

// ufFlattenRange replaces each node's label with its final root.
func ufFlattenRange(nodes []graph.NodeID, label []int32, lo, hi int) (t ufTally) {
	for i := lo; i < hi; i++ {
		v := nodes[i]
		r, h := find(label, int32(v))
		t.hops += h
		atomic.StoreInt32(&label[v], r)
	}
	return t
}
