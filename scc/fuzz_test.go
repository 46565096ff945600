package scc_test

import (
	"encoding/binary"
	"testing"

	"repro/graph"
	"repro/scc"
)

// graphFromBytes decodes fuzz input as a compact binary edge list: the
// first two bytes pick the node count (1..1024) and every following
// 4-byte group is one (from, to) edge with endpoints reduced mod n.
// Every byte string decodes to some valid graph, so the fuzzer spends
// its budget on topology rather than parser rejections.
func graphFromBytes(data []byte) *graph.Graph {
	if len(data) < 2 {
		return graph.FromEdges(0, nil)
	}
	n := int(binary.LittleEndian.Uint16(data[:2]))%1024 + 1
	data = data[2:]
	b := graph.NewBuilder(n)
	for len(data) >= 4 {
		u := graph.NodeID(int(binary.LittleEndian.Uint16(data[:2])) % n)
		v := graph.NodeID(int(binary.LittleEndian.Uint16(data[2:4])) % n)
		b.AddEdge(u, v)
		data = data[4:]
	}
	return b.Build()
}

// FuzzDetect drives the full parallel pipeline — trim, FW-BW, WCC,
// recursion, scratch-arena recycling — on arbitrary topologies: Detect
// must not panic, the decomposition must pass the internal validator
// (Options.Validate), and Method2 must agree with sequential Tarjan.
func FuzzDetect(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0})                         // single node, no edges
	f.Add([]byte{1, 0, 0, 0, 0, 0})             // self-loop
	f.Add([]byte{2, 0, 0, 0, 1, 0, 1, 0, 0, 0}) // 2-cycle
	f.Add([]byte{0, 1, 5, 0, 9, 0, 9, 0, 5, 0}) // cycle in a 257-node graph
	f.Add([]byte{255, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	// High-diameter shapes, seeded so the fuzzer mutates from
	// deep-traversal starting points: long BFS level chains, trim
	// cascades one level per round, and untrimmable cycles that reach
	// the recursive phase.
	f.Add(encodeGraph(chainGraph(200)))
	f.Add(encodeGraph(cycleOfChains(4, 50)))
	f.Add(encodeGraph(lollipop(40, 120)))
	f.Add(encodeGraph(necklace(6, 20)))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := graphFromBytes(data)
		ref, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
		if err != nil {
			t.Fatalf("tarjan: %v", err)
		}
		for _, kern := range []scc.Kernels{scc.KernelsWorklist, scc.KernelsLegacy} {
			res, err := scc.Detect(g, scc.Options{
				Algorithm: scc.Method2, Workers: 2, Seed: 1,
				Kernels: kern, Validate: true,
			})
			if err != nil {
				t.Fatalf("detect/%v: %v", kern, err)
			}
			if res.NumSCCs != ref.NumSCCs {
				t.Fatalf("%v: NumSCCs %d, want %d", kern, res.NumSCCs, ref.NumSCCs)
			}
			if !scc.SamePartition(res.Comp, ref.Comp) {
				t.Fatalf("%v partition differs from Tarjan", kern)
			}
		}
	})
}
