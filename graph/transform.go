package graph

// Transformations produce new graphs; inputs are never mutated
// (consistent with the library's immutable-graph discipline).

// Relabel returns a copy of g with node v renamed to perm[v]. perm
// must be a permutation of 0..n-1 (validated; panics otherwise).
// Relabeling is used to destroy accidental locality in generated
// graphs and to test order-independence of algorithms.
func Relabel(g *Graph, perm []NodeID) *Graph {
	n := g.NumNodes()
	if len(perm) != n {
		panic("graph: Relabel permutation has wrong length")
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			panic("graph: Relabel argument is not a permutation")
		}
		seen[p] = true
	}
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		for _, t := range g.Out(NodeID(v)) {
			b.AddEdge(perm[v], perm[t])
		}
	}
	return b.Build()
}
