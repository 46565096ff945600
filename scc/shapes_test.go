package scc

import (
	"testing"

	"repro/graph"
)

// shapeGraphs builds adversarial graph shapes that stress different
// code paths: trims (chains), FW-BW partitioning (bowties), Trim2
// (2-cycle chains), WCC (disconnected archipelagos), pivot selection
// (twin giants), and traversal depth (long cycles).
func shapeGraphs() map[string]*graph.Graph {
	shapes := map[string]*graph.Graph{}

	// Long pure cycle: one SCC, traversal depth n.
	{
		const n = 3000
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n))
		}
		shapes["long-cycle"] = b.Build()
	}

	// Chain of 2-cycles: Trim2's favorite food.
	{
		const pairs = 800
		b := graph.NewBuilder(2 * pairs)
		for p := 0; p < pairs; p++ {
			a, c := graph.NodeID(2*p), graph.NodeID(2*p+1)
			b.AddEdge(a, c)
			b.AddEdge(c, a)
			if p > 0 {
				b.AddEdge(graph.NodeID(2*p-1), a)
			}
		}
		shapes["two-cycle-chain"] = b.Build()
	}

	// Twin giants: two equal large SCCs bridged one way — pivot
	// selection can only find one per phase-1 trial.
	{
		const half = 1200
		b := graph.NewBuilder(2 * half)
		for i := 0; i < half; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%half))
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+7)%half))
			b.AddEdge(graph.NodeID(half+i), graph.NodeID(half+(i+1)%half))
			b.AddEdge(graph.NodeID(half+i), graph.NodeID(half+(i+11)%half))
		}
		b.AddEdge(0, half)
		shapes["twin-giants"] = b.Build()
	}

	// Bowtie: IN chain → core 3-cycle → OUT chain.
	{
		const arm = 500
		b := graph.NewBuilder(2*arm + 3)
		core := graph.NodeID(2 * arm)
		for i := 0; i < arm-1; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
			b.AddEdge(graph.NodeID(arm+i), graph.NodeID(arm+i+1))
		}
		b.AddEdge(graph.NodeID(arm-1), core)
		b.AddEdge(core, core+1)
		b.AddEdge(core+1, core+2)
		b.AddEdge(core+2, core)
		b.AddEdge(core, graph.NodeID(arm))
		shapes["bowtie"] = b.Build()
	}

	// Archipelago: many disconnected triangles (WCC stress).
	{
		const islands = 700
		b := graph.NewBuilder(3 * islands)
		for i := 0; i < islands; i++ {
			x := graph.NodeID(3 * i)
			b.AddEdge(x, x+1)
			b.AddEdge(x+1, x+2)
			b.AddEdge(x+2, x)
		}
		shapes["archipelago"] = b.Build()
	}

	// Complete bipartite orientation: all edges A→B (pure DAG, dense).
	{
		const side = 60
		b := graph.NewBuilder(2 * side)
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				b.AddEdge(graph.NodeID(i), graph.NodeID(side+j))
			}
		}
		shapes["bipartite-dag"] = b.Build()
	}

	// Pure directed path: n singleton SCCs, diameter n-1 — peak trim
	// depth and, when it survives to a sweep, peak traversal depth.
	{
		const n = 2500
		b := graph.NewBuilder(n)
		for i := 0; i < n-1; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		}
		shapes["deep-chain"] = b.Build()
	}

	// Necklace of cycles: untrimmable m-cycles chained head-to-tail.
	// Every cycle is internally a chain, so for the recursive phase it
	// is a deep sequential-DFS workload.
	{
		const cycles, m = 15, 80
		b := graph.NewBuilder(cycles * m)
		for c := 0; c < cycles; c++ {
			base := c * m
			for i := 0; i < m; i++ {
				b.AddEdge(graph.NodeID(base+i), graph.NodeID(base+(i+1)%m))
			}
			if c+1 < cycles {
				b.AddEdge(graph.NodeID(base), graph.NodeID(base+m))
			}
		}
		shapes["cycle-necklace"] = b.Build()
	}

	// Lollipop: a cycle with a long tail path. Trim peels the tail one
	// level at a time before the candy is exposed.
	{
		const cyc, stick = 300, 900
		b := graph.NewBuilder(cyc + stick)
		for i := 0; i < cyc; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%cyc))
		}
		b.AddEdge(0, graph.NodeID(cyc))
		for i := 0; i < stick-1; i++ {
			b.AddEdge(graph.NodeID(cyc+i), graph.NodeID(cyc+i+1))
		}
		shapes["lollipop"] = b.Build()
	}

	// Star in/out: one hub with edges both ways to every spoke — the
	// whole graph is one SCC through the hub? No: hub↔spoke pairs are
	// 2-cycles through the hub, so everything is mutually reachable →
	// one giant SCC with degree-n hub (pivot heuristic stress).
	{
		const spokes = 2000
		b := graph.NewBuilder(spokes + 1)
		for i := 1; i <= spokes; i++ {
			b.AddEdge(0, graph.NodeID(i))
			b.AddEdge(graph.NodeID(i), 0)
		}
		shapes["hub-scc"] = b.Build()
	}
	return shapes
}

func TestAllAlgorithmsAdversarialShapes(t *testing.T) {
	for name, g := range shapeGraphs() {
		ref, err := Detect(g, Options{Algorithm: Tarjan})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Validate(g, ref.Comp); err != nil {
			t.Fatalf("%s: Tarjan invalid: %v", name, err)
		}
		for _, alg := range allAlgorithms {
			if alg == Tarjan {
				continue
			}
			res, err := Detect(g, Options{Algorithm: alg, Workers: 4, Seed: 7})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, alg, err)
			}
			if !SamePartition(res.Comp, ref.Comp) {
				t.Errorf("%s: %v disagrees with Tarjan", name, alg)
			}
		}
		// The paper's round-based legacy kernels face every adversarial
		// shape too: the deep ones cost them one trim round per level.
		res, err := Detect(g, Options{Algorithm: Method2, Workers: 4, Seed: 7, Kernels: KernelsLegacy})
		if err != nil {
			t.Fatalf("%s/legacy: %v", name, err)
		}
		if !SamePartition(res.Comp, ref.Comp) {
			t.Errorf("%s: legacy kernels disagree with Tarjan", name)
		}
	}
}

func TestShapeExpectations(t *testing.T) {
	shapes := shapeGraphs()
	expect := map[string]int64{
		"long-cycle":      1,
		"two-cycle-chain": 800,
		"twin-giants":     2,
		"bowtie":          2*500 + 1,
		"archipelago":     700,
		"bipartite-dag":   120,
		"hub-scc":         1,
		"deep-chain":      2500,
		"cycle-necklace":  15,
		"lollipop":        1 + 900,
	}
	for name, want := range expect {
		res, err := Detect(shapes[name], Options{Algorithm: Tarjan})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumSCCs != want {
			t.Errorf("%s: %d SCCs, want %d", name, res.NumSCCs, want)
		}
	}
}
