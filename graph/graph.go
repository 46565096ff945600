// Package graph provides the compressed sparse row (CSR) directed-graph
// representation used by the SCC algorithms, together with a builder,
// binary and text I/O, and structural statistics.
//
// The representation follows §4.1 of Hong, Rodia & Olukotun (SC '13): a
// node-indexed offset array pointing into a single edge array, stored
// for both edge directions so that forward and backward reachability
// run at full memory bandwidth. Graphs are immutable once built; the
// SCC algorithms never modify them, using side arrays (mark, Color)
// instead.
package graph

import (
	"fmt"
	"slices"
)

// NodeID identifies a vertex. 32-bit IDs halve the memory footprint of
// the adjacency arrays; graphs in the paper's class (≤ ~2 billion
// nodes) fit comfortably.
type NodeID = int32

// Graph is an immutable directed graph in CSR form, with both out- and
// in-adjacency stored. Construct one with a Builder, a generator from
// package gen, or Load.
type Graph struct {
	outIdx []int64  // len n+1; outIdx[v]..outIdx[v+1] indexes outAdj
	outAdj []NodeID // out-neighbors, sorted per node
	inIdx  []int64  // len n+1
	inAdj  []NodeID // in-neighbors, sorted per node
}

// NumNodes returns the number of vertices.
func (g *Graph) NumNodes() int { return len(g.outIdx) - 1 }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return g.outIdx[len(g.outIdx)-1] }

// Out returns v's out-neighbor list. The slice aliases the graph's
// internal storage and must not be modified.
func (g *Graph) Out(v NodeID) []NodeID { return g.outAdj[g.outIdx[v]:g.outIdx[v+1]] }

// In returns v's in-neighbor list. The slice aliases the graph's
// internal storage and must not be modified.
func (g *Graph) In(v NodeID) []NodeID { return g.inAdj[g.inIdx[v]:g.inIdx[v+1]] }

// OutDegree returns the number of out-edges of v.
func (g *Graph) OutDegree(v NodeID) int { return int(g.outIdx[v+1] - g.outIdx[v]) }

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v NodeID) int { return int(g.inIdx[v+1] - g.inIdx[v]) }

// HasEdge reports whether the edge u→v exists, by binary search over
// u's sorted out-neighbor list.
func (g *Graph) HasEdge(u, v NodeID) bool {
	adj := g.Out(u)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == v
}

// Reverse returns the transpose graph (every edge flipped). Because
// both directions are already stored, this is O(1): the result shares
// storage with g.
func (g *Graph) Reverse() *Graph {
	return &Graph{outIdx: g.inIdx, outAdj: g.inAdj, inIdx: g.outIdx, inAdj: g.outAdj}
}

// String returns a short diagnostic summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.NumEdges())
}

// Edge is a directed edge for bulk construction.
type Edge struct {
	From, To NodeID
}

// Builder accumulates edges and assembles a CSR Graph. The zero value
// is not usable; call NewBuilder with the node count.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n nodes, 0..n-1.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// NumNodes returns the node count the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of edges added so far (before dedup).
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddEdge appends the directed edge u→v. Self-loops are allowed;
// duplicate edges are removed at Build time. Panics if either endpoint
// is out of range.
func (b *Builder) AddEdge(u, v NodeID) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, Edge{u, v})
}

// AddEdges appends a batch of edges.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		b.AddEdge(e.From, e.To)
	}
}

// Grow extends the node count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// Build assembles the CSR graph: counting sort by source for the out
// direction and by destination for the in direction, per-node neighbor
// sort, and duplicate-edge removal. The builder may be reused (its edge
// list is unmodified).
func (b *Builder) Build() *Graph {
	out := csrFrom(b.n, b.edges, func(e Edge) (NodeID, NodeID) { return e.From, e.To })
	in := csrFrom(b.n, b.edges, func(e Edge) (NodeID, NodeID) { return e.To, e.From })
	return &Graph{outIdx: out.idx, outAdj: out.adj, inIdx: in.idx, inAdj: in.adj}
}

// OutCSR returns the out-direction CSR arrays: idx has length
// NumNodes()+1 and idx[v]..idx[v+1] frames v's slice of adj. Both
// slices alias the graph's internal storage and must not be modified.
// Paired with FromCSR it lets an incremental caller patch a few rows
// and bulk-copy the rest.
func (g *Graph) OutCSR() (idx []int64, adj []NodeID) { return g.outIdx, g.outAdj }

// InCSR is OutCSR for the in direction.
func (g *Graph) InCSR() (idx []int64, adj []NodeID) { return g.inIdx, g.inAdj }

// FromCSR assembles a Graph directly from prebuilt CSR arrays,
// bypassing the Builder's counting sort — for callers that already
// hold both directions in CSR form and only patched a few rows (e.g.
// incremental condensation maintenance). The four slices are adopted,
// not copied; outIdx/outAdj and inIdx/inAdj must describe the same
// edge set from both directions, with sorted, duplicate-free
// per-node adjacency. Structural invariants (index monotonicity,
// lengths, neighbor bounds) are checked; violations panic, matching
// AddEdge's contract on malformed input.
func FromCSR(outIdx []int64, outAdj []NodeID, inIdx []int64, inAdj []NodeID) *Graph {
	if len(outIdx) == 0 || len(outIdx) != len(inIdx) {
		panic(fmt.Sprintf("graph: FromCSR index lengths %d vs %d", len(outIdx), len(inIdx)))
	}
	if len(outAdj) != len(inAdj) {
		panic(fmt.Sprintf("graph: FromCSR edge counts disagree: out %d, in %d", len(outAdj), len(inAdj)))
	}
	n := NodeID(len(outIdx) - 1)
	for _, side := range [2]struct {
		idx []int64
		adj []NodeID
	}{{outIdx, outAdj}, {inIdx, inAdj}} {
		if side.idx[0] != 0 || side.idx[len(side.idx)-1] != int64(len(side.adj)) {
			panic(fmt.Sprintf("graph: FromCSR index does not frame %d adjacency entries", len(side.adj)))
		}
		for v := 0; v < int(n); v++ {
			if side.idx[v] > side.idx[v+1] {
				panic(fmt.Sprintf("graph: FromCSR index not monotone at node %d", v))
			}
		}
		for _, w := range side.adj {
			if w < 0 || w >= n {
				panic(fmt.Sprintf("graph: FromCSR neighbor %d out of range [0,%d)", w, n))
			}
		}
	}
	return &Graph{outIdx: outIdx, outAdj: outAdj, inIdx: inIdx, inAdj: inAdj}
}

type csr struct {
	idx []int64
	adj []NodeID
}

// csrFrom builds one direction of the CSR using a counting sort keyed
// by `key`, then sorts and dedups each adjacency list in place.
func csrFrom(n int, edges []Edge, split func(Edge) (key, val NodeID)) csr {
	idx := make([]int64, n+1)
	for _, e := range edges {
		k, _ := split(e)
		idx[k+1]++
	}
	for i := 0; i < n; i++ {
		idx[i+1] += idx[i]
	}
	adj := make([]NodeID, len(edges))
	cursor := make([]int64, n)
	for _, e := range edges {
		k, v := split(e)
		adj[idx[k]+cursor[k]] = v
		cursor[k]++
	}
	// Sort each adjacency list and drop duplicates, compacting the
	// arrays as we go.
	var w int64
	newIdx := make([]int64, n+1)
	for v := 0; v < n; v++ {
		lo, hi := idx[v], idx[v+1]
		list := adj[lo:hi]
		sortNodeIDs(list)
		start := w
		var prev NodeID = -1
		for _, x := range list {
			if x != prev {
				adj[w] = x
				w++
				prev = x
			}
		}
		newIdx[v] = start
	}
	newIdx[n] = w
	return csr{idx: newIdx, adj: adj[:w:w]}
}

// sortNodeIDs sorts an adjacency list. Most lists are short, and an
// inline insertion sort beats slices.Sort on them (about 1.5x on lists
// under 24 entries); longer lists go to slices.Sort.
func sortNodeIDs(a []NodeID) {
	if len(a) < 24 {
		for i := 1; i < len(a); i++ {
			x := a[i]
			j := i - 1
			for j >= 0 && a[j] > x {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = x
		}
		return
	}
	slices.Sort(a)
}

// FromEdges is a convenience constructor: build a graph with n nodes
// from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}

// AppendEdges flattens the graph back into an edge list, appending
// every edge to dst in source-major order. It is FromEdges' inverse
// up to edge ordering, used wherever a CSR graph seeds a mutable edge
// set (the serving layer's authoritative edges, durable recovery).
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	if need := len(dst) + int(g.NumEdges()); cap(dst) < need {
		grown := make([]Edge, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, w := range g.Out(NodeID(v)) {
			dst = append(dst, Edge{From: NodeID(v), To: w})
		}
	}
	return dst
}
