package obf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/gen"
	"repro/graph"
	"repro/internal/parallel"
	"repro/internal/seq"
	"repro/internal/verify"
)

func checkOBF(t *testing.T, g *graph.Graph, workers int) *Result {
	t.Helper()
	res := Run(g, Options{Workers: workers, Seed: 1})
	tc, tn := seq.Tarjan(g)
	if !verify.SamePartition(res.Comp, tc) {
		t.Fatal("OBF partition differs from Tarjan")
	}
	if int(res.NumSCCs) != tn {
		t.Fatalf("NumSCCs = %d, want %d", res.NumSCCs, tn)
	}
	return res
}

func TestOBFTinyGraphs(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []graph.Edge
	}{
		{"empty", 0, nil},
		{"single", 1, nil},
		{"self-loop", 1, []graph.Edge{{From: 0, To: 0}}},
		{"two-cycle", 2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}}},
		{"path", 4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}},
		{"cycle-at-root", 3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2}}},
		{"two-islands", 4, []graph.Edge{{From: 0, To: 1}, {From: 2, To: 3}, {From: 3, To: 2}}},
	}
	for _, tc := range cases {
		g := graph.FromEdges(tc.n, tc.edges)
		for _, w := range []int{1, 4} {
			checkOBF(t, g, w)
		}
	}
}

func TestOBFRandomQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		b := graph.NewBuilder(n)
		for i := 0; i < n*3; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		res := Run(g, Options{Workers: 4, Seed: seed})
		tc, _ := seq.Tarjan(g)
		return verify.SamePartition(res.Comp, tc)
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(2)), MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestOBFRMAT(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 6))
	res := checkOBF(t, g, 4)
	if res.Slices == 0 {
		t.Fatal("no OBF slices executed")
	}
}

func TestOBFPlanted(t *testing.T) {
	p := gen.SmallWorldSCC(1500, 300, 2.3, 20, 1.5, 9)
	truth := make([]int32, len(p.Comp))
	for i, c := range p.Comp {
		truth[i] = int32(c)
	}
	res := Run(p.Graph, Options{Workers: 4, Seed: 3})
	if !verify.SamePartition(res.Comp, truth) {
		t.Fatal("OBF differs from planted truth")
	}
}

func TestOBFDAGEliminatedByOWCTY(t *testing.T) {
	// On a DAG every SCC is trivial: OWCTY elimination should do all
	// the work in few slices with no FW-BW recursion on large sets.
	g := gen.CitationDAG(2000, 4, 7)
	res := checkOBF(t, g, 2)
	if res.NumSCCs != 2000 {
		t.Fatalf("NumSCCs = %d", res.NumSCCs)
	}
}

func TestOBFLattice(t *testing.T) {
	g := gen.RoadLattice(gen.RoadLatticeConfig{Rows: 40, Cols: 40, TwoWayProb: 0.1, Seed: 2})
	checkOBF(t, g, 4)
}

func TestOBFDeterministicAcrossWorkers(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 8))
	var want []int32
	for _, w := range []int{1, 2, 8} {
		res := Run(g, Options{Workers: w, Seed: 5})
		if want == nil {
			want = res.Comp
			continue
		}
		if !verify.SamePartition(res.Comp, want) {
			t.Fatalf("workers=%d changed the partition", w)
		}
	}
}

func BenchmarkOBFRMAT(b *testing.B) {
	g := gen.RMAT(gen.DefaultRMAT(13, 8, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(g, Options{Workers: 4, Seed: 1})
	}
}

// TestOptionsWithDefaults pins OBF's defaulting to the engine's: a
// worker count <= 0 selects GOMAXPROCS, as scc.Options.Workers
// documents, and K <= 0 selects 1; set fields pass through.
func TestOptionsWithDefaults(t *testing.T) {
	for _, opt := range []Options{{}, {Workers: -1, K: -2}} {
		got := opt.withDefaults()
		if got.Workers != parallel.DefaultWorkers() || got.K != 1 {
			t.Fatalf("%+v.withDefaults() = %+v, want Workers=%d K=1", opt, got, parallel.DefaultWorkers())
		}
	}
	set := Options{Workers: 3, K: 4, Seed: 9}
	if got := set.withDefaults(); got != set {
		t.Fatalf("%+v.withDefaults() = %+v, want it unchanged", set, got)
	}
}
