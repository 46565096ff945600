package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/gen"
	"repro/graph"
	"repro/internal/seq"
)

// The benchmark generates its own inputs from the workload seed, with
// the recipes of the experiments package's flickr and ca-road analogs,
// so the program under test only ever sees generated graphs and streams.

// expFor maps a base power-of-two exponent through a scale factor the
// way the dataset suite does: every halving of the scale drops one.
func expFor(base int, scale float64) int {
	n := base
	for scale <= 0.5 && n > 8 {
		n--
		scale *= 2
	}
	return n
}

// genSeed derives a generator seed from the workload seed and a recipe
// constant, so two recipes never share a random stream.
func genSeed(seed, recipe int64) int64 { return seed*1_000_003 + recipe }

// flickrGraph is the R-MAT analog of the Flickr user graph: a small-world
// core plus the suite's heaviest mid-size SCC tail.
func flickrGraph(scale float64, seed int64) *graph.Graph {
	s := genSeed(seed, 102)
	cfg := gen.DefaultRMAT(expFor(17, scale), 14, s)
	cfg.A, cfg.B, cfg.C, cfg.D = 0.45, 0.18, 0.18, 0.19
	core := gen.RMAT(cfg)
	return gen.WithTail(core, gen.TailConfig{
		Components:  core.NumNodes() / 8,
		Alpha:       2.0,
		MaxSize:     128,
		AttachEdges: 2,
		ChainProb:   0.6,
		Seed:        s,
	})
}

// roadGraph is the randomly oriented 2-D lattice analog of the
// California road network: planar, high diameter.
func roadGraph(scale float64, seed int64) *graph.Graph {
	side := 1 << (expFor(18, scale) / 2)
	return gen.RoadLattice(gen.RoadLatticeConfig{
		Rows: side, Cols: side, TwoWayProb: 0.05, Seed: genSeed(seed, 109),
	})
}

// edgeModel is the benchmark's own copy of an edge set with set
// semantics, kept independent of the program's graph and overlay types.
type edgeModel struct {
	out   [][]int32
	edges int64
}

func newEdgeModel(g *graph.Graph) *edgeModel {
	m := &edgeModel{out: make([][]int32, g.NumNodes())}
	for u := range m.out {
		m.out[u] = slices.Clone(g.Out(graph.NodeID(u)))
		m.edges += int64(len(m.out[u]))
	}
	return m
}

// apply performs one signed update and reports whether the set changed.
func (m *edgeModel) apply(up graph.Update) bool {
	u, v := up.From, up.To
	i := slices.Index(m.out[u], v)
	switch {
	case up.Op == graph.EdgeInsert && i < 0:
		m.out[u] = append(m.out[u], v)
		m.edges++
		return true
	case up.Op == graph.EdgeDelete && i >= 0:
		last := len(m.out[u]) - 1
		m.out[u][i] = m.out[u][last]
		m.out[u] = m.out[u][:last]
		m.edges--
		return true
	}
	return false
}

// randomEdge picks an existing edge u→v, or ok=false after many misses.
func (m *edgeModel) randomEdge(rng *rand.Rand, from []int32) (u, v int32, ok bool) {
	for tries := 0; tries < 256; tries++ {
		if from != nil {
			u = from[rng.Intn(len(from))]
		} else {
			u = int32(rng.Intn(len(m.out)))
		}
		if l := m.out[u]; len(l) > 0 {
			return u, l[rng.Intn(len(l))], true
		}
	}
	return 0, 0, false
}

// graph materializes the model.
func (m *edgeModel) graph() *graph.Graph {
	b := graph.NewBuilder(len(m.out))
	for u, l := range m.out {
		for _, v := range l {
			b.AddEdge(graph.NodeID(u), v)
		}
	}
	return b.Build()
}

// reaches reports whether dst is reachable from src (BFS on the model).
func (m *edgeModel) reaches(src, dst int32, seen []bool, queue []int32) bool {
	clear(seen)
	queue = append(queue[:0], src)
	seen[src] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u == dst {
			return true
		}
		for _, v := range m.out[u] {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return false
}

// query is one read of the stream: componentof(a) or reachable(a, b).
type query struct {
	reach bool
	a, b  int32
}

func (q query) path() string {
	if q.reach {
		return fmt.Sprintf("/reachable?from=%d&to=%d", q.a, q.b)
	}
	return fmt.Sprintf("/componentof?node=%d", q.a)
}

// genQueries makes count reads over n nodes: componentof and reachable
// in equal shares, alternating.
func genQueries(rng *rand.Rand, n, count int) []query {
	qs := make([]query, count)
	for i := range qs {
		qs[i] = query{reach: i%2 == 1, a: int32(rng.Intn(n)), b: int32(rng.Intn(n))}
	}
	return qs
}

// updateMix is the per-batch composition of the update stream. Every
// choice is made against a recent Tarjan labeling of the stream's own
// edge model, whose component ids are a reverse topological order of the
// condensation, so the SCC structure stays close to the base graph's for
// the whole run and every incremental-maintenance class fires:
//
//   - intra: an insert between two members of one SCC (intra inserts);
//   - order: an insert between random nodes, oriented along the
//     topological order so it closes no cycle (DAG inserts);
//   - reverse: the reverse of an existing edge between two SCCs outside
//     the largest, which merges them and any SCC between them (cycle
//     merges);
//   - delInter: a delete of an existing edge between two SCCs outside
//     the largest (DAG deletes, or no-op deletes when a parallel edge
//     survives);
//   - delSmall: a delete inside an SCC of at most 128 nodes (partial
//     recomputes when it splits, no-op deletes when it does not);
//   - dup: a duplicate insert of an existing edge (no-ops).
//
// Deletes inside the largest SCC are left out: one that splits it
// recomputes most of the graph, and a few per second would outrun the
// fixed write rate.
type updateMix struct {
	intra, order, reverse, delInter, delSmall, dup int
}

var defaultMix = updateMix{intra: 6, order: 3, reverse: 1, delInter: 3, delSmall: 2, dup: 1}

func (x updateMix) size() int {
	return x.intra + x.order + x.reverse + x.delInter + x.delSmall + x.dup
}

func (x updateMix) String() string {
	return fmt.Sprintf("intra=%d order=%d reverse=%d del_inter=%d del_small=%d dup=%d",
		x.intra, x.order, x.reverse, x.delInter, x.delSmall, x.dup)
}

// sccIndex groups nodes by the base labeling.
type sccIndex struct {
	label []int32
	memb  map[int32][]int32
	giant int32     // id of the largest SCC
	multi []int32   // members of every SCC with two or more nodes
	small [][]int32 // member lists of SCCs with 2..128 nodes
}

func newSCCIndex(label []int32) *sccIndex {
	memb := make(map[int32][]int32)
	for v, c := range label {
		memb[c] = append(memb[c], int32(v))
	}
	ix := &sccIndex{label: label, memb: memb, giant: -1}
	keys := make([]int32, 0, len(memb))
	for c := range memb {
		keys = append(keys, c)
	}
	slices.Sort(keys) // map order must not leak into the stream
	for _, c := range keys {
		ms := memb[c]
		if ix.giant < 0 || len(ms) > len(memb[ix.giant]) {
			ix.giant = c
		}
		if len(ms) < 2 {
			continue
		}
		ix.multi = append(ix.multi, ms...)
		if len(ms) <= 128 {
			ix.small = append(ix.small, ms)
		}
	}
	return ix
}

// refreshEvery is how many batches the stream generator makes between
// two Tarjan passes over its own model. Choices read the labeling of the
// last pass, so a delete lands inside the largest SCC only if that SCC
// absorbed its endpoints less than refreshEvery batches earlier.
const refreshEvery = 16

// genBatches makes count update batches of the mix against base. It
// simulates the edge set as it goes, so deletes and duplicate inserts
// name edges that exist when sent, and relabels it every refreshEvery
// batches.
func genBatches(rng *rand.Rand, base *graph.Graph, count int, mix updateMix) [][]graph.Update {
	m := newEdgeModel(base)
	n := len(m.out)
	var (
		label []int32
		ix    *sccIndex
	)
	// edgeWhere draws existing edges from members of from (all nodes
	// when nil) until one satisfies ok.
	edgeWhere := func(from []int32, ok func(u, v int32) bool) (int32, int32, bool) {
		for tries := 0; tries < 64; tries++ {
			if u, v, found := m.randomEdge(rng, from); found && ok(u, v) {
				return u, v, true
			}
		}
		return 0, 0, false
	}
	between := func(u, v int32) bool {
		return label[u] != label[v] && label[u] != ix.giant && label[v] != ix.giant
	}
	batches := make([][]graph.Update, count)
	for b := range batches {
		if b%refreshEvery == 0 {
			label, _ = seq.Tarjan(m.graph())
			ix = newSCCIndex(label)
		}
		batch := make([]graph.Update, 0, mix.size())
		add := func(op graph.EdgeOp, u, v int32) {
			up := graph.Update{Op: op, From: u, To: v}
			m.apply(up)
			batch = append(batch, up)
		}
		for i := 0; i < mix.intra && len(ix.multi) > 0; i++ {
			u := ix.multi[rng.Intn(len(ix.multi))]
			ms := ix.memb[label[u]]
			v := ms[(slices.Index(ms, u)+1+rng.Intn(len(ms)-1))%len(ms)]
			add(graph.EdgeInsert, u, v)
		}
		for i := 0; i < mix.order; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if label[u] < label[v] {
				u, v = v, u
			}
			if u != v {
				add(graph.EdgeInsert, u, v)
			}
		}
		for i := 0; i < mix.reverse; i++ {
			if u, v, ok := edgeWhere(nil, between); ok {
				add(graph.EdgeInsert, v, u)
			}
		}
		for i := 0; i < mix.delInter; i++ {
			if u, v, ok := edgeWhere(nil, between); ok {
				add(graph.EdgeDelete, u, v)
			}
		}
		for i := 0; i < mix.delSmall && len(ix.small) > 0; i++ {
			comp := ix.small[rng.Intn(len(ix.small))]
			if u, v, ok := edgeWhere(comp, func(u, v int32) bool { return label[u] == label[v] }); ok {
				add(graph.EdgeDelete, u, v)
			}
		}
		for i := 0; i < mix.dup; i++ {
			if u, v, ok := m.randomEdge(rng, nil); ok {
				batch = append(batch, graph.Update{Op: graph.EdgeInsert, From: u, To: v})
			}
		}
		batches[b] = batch
	}
	return batches
}

// body renders a batch in the /update wire format.
func body(batch []graph.Update) string {
	var sb strings.Builder
	for _, up := range batch {
		sign := '+'
		if up.Op == graph.EdgeDelete {
			sign = '-'
		}
		fmt.Fprintf(&sb, "%c%d %d\n", sign, up.From, up.To)
	}
	return sb.String()
}
