package wcc

import (
	"slices"
	"sync/atomic"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/events"
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
	k := begin(g, color, nodes, label, ar)
	k.tally = ar.ClaimMatrix(3)
	// The three passes: sampling, whose first couple of out-neighbors
	// per node connect the giant components almost entirely; full,
	// which hooks every remaining same-color edge; and flatten, which
	// runs once all unions are done, so every root is final and
	// label[v] becomes the component minimum. Flatten's bodies cost
	// one find each, hence its larger chunk.
	for pass, round := range [...]func(*kernel, int, int, int){(*kernel).sampleChunk, (*kernel).fullChunk, (*kernel).flattenChunk} {
		if pass == 1 {
			// Most-frequent-component detection: a strided root sample,
			// sorted; the longest run's root is the component the full
			// pass skips.
			var hops int64
			k.skip, hops = ufSkipRoot(nodes, label, ar)
			k.tally[0][1] += hops
		}
		if sink.Err() != nil {
			break
		}
		res.Rounds++
		ctr.AddWCCRound()
		sink.Emit(events.Event{Type: events.WCCRound, Round: res.Rounds})
		k.dispatch(ar, [...]int{128, 128, 512}[pass], round)
		// Fold the pass's per-worker rows into the run counters.
		var sum ufTally
		for _, row := range k.tally {
			sum.unions += row[0]
			sum.hops += row[1]
			sum.skips += row[2]
			clear(row)
		}
		ctr.AddUFPass(sum.unions, sum.hops, sum.skips)
	}
	k.end()
	for _, v := range nodes {
		if label[v] == int32(v) {
			res.Components++
		}
	}
	return res
}

// ufTally is one chunk's union-find work: successful hooks, find hops
// and nodes the full pass skipped. A pass body counts in a local tally
// and adds it to the worker's counter row [unions, hops, skips] once
// per chunk, because the rows share cache lines and a write per hop
// would bounce them between the cores.
type ufTally struct {
	unions, hops, skips int64
}

// addTo adds the tally into a worker's counter row.
func (t ufTally) addTo(row []int64) {
	row[0] += t.unions
	row[1] += t.hops
	row[2] += t.skips
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

// sampleChunk is the sampling pass's body: it hooks each node of
// nodes[lo:hi] with its first sampleNeighbors same-color
// out-neighbors. Its first chunk hits the WCC site, once per pass, and
// every chunk the UF site.
func (k *kernel) sampleChunk(w, lo, hi int) {
	if lo == 0 {
		k.inj.Hit(chaos.SiteWCC)
	}
	k.inj.Hit(chaos.SiteUF)
	g, color, label := k.g, k.color, k.label
	var t ufTally
	for _, v := range k.nodes[lo:hi] {
		c := color[v]
		cnt := 0
		for _, u := range g.Out(v) {
			if u == v || color[u] != c {
				continue
			}
			n, h := union(label, int32(v), int32(u))
			t.unions += n
			t.hops += h
			cnt++
			if cnt == sampleNeighbors {
				break
			}
		}
	}
	t.addTo(k.tally[w])
}

// fullChunk is the full pass's body: it hooks every same-color edge of
// the unskipped nodes of nodes[lo:hi], both directions, so each edge
// is seen from either endpoint unless both are already in the skip
// component. Such nodes contribute no new connectivity their neighbors
// won't also see — every edge with at least one unskipped endpoint is
// hooked from that endpoint, and an edge with both endpoints skipped
// is already intra-component. It hits the sites as sampleChunk does.
func (k *kernel) fullChunk(w, lo, hi int) {
	if lo == 0 {
		k.inj.Hit(chaos.SiteWCC)
	}
	k.inj.Hit(chaos.SiteUF)
	g, color, label, skip := k.g, k.color, k.label, k.skip
	var t ufTally
	for _, v := range k.nodes[lo:hi] {
		if skip >= 0 {
			r, h := find(label, int32(v))
			t.hops += h
			if r == skip {
				t.skips++
				continue
			}
		}
		c := color[v]
		for _, u := range g.Out(v) {
			if u != v && color[u] == c {
				n, h := union(label, int32(v), int32(u))
				t.unions += n
				t.hops += h
			}
		}
		for _, u := range g.In(v) {
			if u != v && color[u] == c {
				n, h := union(label, int32(v), int32(u))
				t.unions += n
				t.hops += h
			}
		}
	}
	t.addTo(k.tally[w])
}

// flattenChunk is the flatten pass's body: it replaces the label of
// each node of nodes[lo:hi] with its final root. Its first chunk hits
// the WCC site.
func (k *kernel) flattenChunk(w, lo, hi int) {
	if lo == 0 {
		k.inj.Hit(chaos.SiteWCC)
	}
	label := k.label
	var t ufTally
	for _, v := range k.nodes[lo:hi] {
		r, h := find(label, int32(v))
		t.hops += h
		atomic.StoreInt32(&label[v], r)
	}
	t.addTo(k.tally[w])
}
