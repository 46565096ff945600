package graph

import (
	"math/rand"
	"testing"
)

func TestRelabelPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(t, 9, 40, 200)
	perm := make([]NodeID, 40)
	for i := range perm {
		perm[i] = NodeID(i)
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	r := Relabel(g, perm)
	if r.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", r.NumEdges(), g.NumEdges())
	}
	for v := 0; v < 40; v++ {
		for _, tgt := range g.Out(NodeID(v)) {
			if !r.HasEdge(perm[v], perm[tgt]) {
				t.Fatalf("edge %d→%d lost after relabel", v, tgt)
			}
		}
	}
}

func TestRelabelRejectsBadPermutation(t *testing.T) {
	g := FromEdges(3, nil)
	for _, perm := range [][]NodeID{
		{0, 1},     // wrong length
		{0, 1, 1},  // duplicate
		{0, 1, 3},  // out of range
		{-1, 1, 2}, // negative
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Relabel accepted %v", perm)
				}
			}()
			Relabel(g, perm)
		}()
	}
}
