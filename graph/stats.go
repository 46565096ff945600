package graph

import (
	"math/rand"
	"sort"
)

// Stats summarizes the structural properties reported in Table 1 of the
// paper (node/edge counts, degree distribution, estimated diameter).
type Stats struct {
	Nodes          int
	Edges          int64
	MinOutDegree   int
	MaxOutDegree   int
	MinInDegree    int
	MaxInDegree    int
	MeanDegree     float64
	SelfLoops      int64
	EstDiameter    int     // sampled pseudo-diameter (undirected BFS)
	DegreeGini     float64 // inequality of the out-degree distribution
	ZeroInDegree   int     // nodes with no in-edges
	ZeroOutDegree  int     // nodes with no out-edges
	ReciprocalFrac float64 // fraction of edges whose reverse also exists
}

// ComputeStats scans g and estimates the diameter from diameterSamples
// random BFS sources (0 disables the estimate, matching the paper's
// "estimated from a random sampling of nodes"). The RNG seed is fixed
// so runs are reproducible.
func ComputeStats(g *Graph, diameterSamples int) Stats {
	n := g.NumNodes()
	s := Stats{Nodes: n, Edges: g.NumEdges()}
	if n == 0 {
		return s
	}
	s.MinOutDegree = g.OutDegree(0)
	s.MinInDegree = g.InDegree(0)
	var reciprocal int64
	for v := 0; v < n; v++ {
		id := NodeID(v)
		od, ind := g.OutDegree(id), g.InDegree(id)
		if od < s.MinOutDegree {
			s.MinOutDegree = od
		}
		if od > s.MaxOutDegree {
			s.MaxOutDegree = od
		}
		if ind < s.MinInDegree {
			s.MinInDegree = ind
		}
		if ind > s.MaxInDegree {
			s.MaxInDegree = ind
		}
		if od == 0 {
			s.ZeroOutDegree++
		}
		if ind == 0 {
			s.ZeroInDegree++
		}
		for _, t := range g.Out(id) {
			if t == id {
				s.SelfLoops++
			}
			if g.HasEdge(t, id) {
				reciprocal++
			}
		}
	}
	s.MeanDegree = float64(s.Edges) / float64(n)
	if s.Edges > 0 {
		s.ReciprocalFrac = float64(reciprocal) / float64(s.Edges)
	}
	s.DegreeGini = outDegreeGini(g)
	if diameterSamples > 0 {
		s.EstDiameter = EstimateDiameter(g, diameterSamples, 42)
	}
	return s
}

// outDegreeGini computes the Gini coefficient of the out-degree
// distribution: 0 for perfectly uniform degrees, →1 for extreme skew.
// Scale-free graphs score high; lattices score near 0.
func outDegreeGini(g *Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(NodeID(v))
	}
	sort.Ints(deg)
	var cum, weighted float64
	for i, d := range deg {
		cum += float64(d)
		weighted += float64(d) * float64(i+1)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*cum) / (float64(n) * cum)
}

// EstimateDiameter estimates the graph's pseudo-diameter: the maximum
// BFS eccentricity observed from `samples` random sources, treating
// edges as undirected (the convention used for Table 1's diameter
// column). It is a lower bound on the true diameter.
func EstimateDiameter(g *Graph, samples int, seed int64) int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	dist := make([]int32, n)
	queue := make([]NodeID, 0, n)
	best := 0
	src := NodeID(rng.Intn(n))
	for s := 0; s < samples; s++ {
		ecc, far := undirectedEccentricity(g, src, dist, &queue)
		if ecc > best {
			best = ecc
		}
		// Alternate: half the samples sweep from the farthest node found
		// (double-sweep heuristic tightens the bound on high-diameter
		// graphs), half restart at random to escape small components.
		if s%2 == 0 && far >= 0 {
			src = far
		} else {
			src = NodeID(rng.Intn(n))
		}
	}
	return best
}

// undirectedEccentricity runs a BFS from src over the union of out- and
// in-edges, returning the eccentricity and the farthest node reached.
func undirectedEccentricity(g *Graph, src NodeID, dist []int32, queue *[]NodeID) (int, NodeID) {
	for i := range dist {
		dist[i] = -1
	}
	q := (*queue)[:0]
	dist[src] = 0
	q = append(q, src)
	far := src
	for head := 0; head < len(q); head++ {
		v := q[head]
		d := dist[v] + 1
		for _, t := range g.Out(v) {
			if dist[t] < 0 {
				dist[t] = d
				q = append(q, t)
				far = t
			}
		}
		for _, t := range g.In(v) {
			if dist[t] < 0 {
				dist[t] = d
				q = append(q, t)
				far = t
			}
		}
	}
	*queue = q
	return int(dist[far]), far
}
