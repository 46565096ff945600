package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/gen"
	"repro/graph"
	"repro/internal/seq"
	"repro/internal/verify"
)

var allAlgorithms = []Algorithm{Baseline, Method1, Method2}

// checkAgainstTarjan validates a Result against Tarjan's decomposition
// and the structural verifier.
func checkAgainstTarjan(t *testing.T, g *graph.Graph, alg Algorithm, res *Result) {
	t.Helper()
	tc, tn := seq.Tarjan(g)
	if !verify.SamePartition(res.Comp, tc) {
		t.Fatalf("%v: partition differs from Tarjan", alg)
	}
	if int(res.NumSCCs) != tn {
		t.Fatalf("%v: NumSCCs = %d, want %d", alg, res.NumSCCs, tn)
	}
	if err := verify.CheckDecomposition(g, res.Comp); err != nil {
		t.Fatalf("%v: %v", alg, err)
	}
}

func TestAllAlgorithmsTinyGraphs(t *testing.T) {
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
		{"triangle+tail", 5, []graph.Edge{
			{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}, {From: 2, To: 3}, {From: 3, To: 4}}},
		{"two-sccs", 6, []graph.Edge{
			{From: 0, To: 1}, {From: 1, To: 0},
			{From: 2, To: 3}, {From: 3, To: 4}, {From: 4, To: 2}, {From: 1, To: 2}, {From: 5, To: 0}}},
	}
	for _, tc := range cases {
		g := graph.FromEdges(tc.n, tc.edges)
		for _, alg := range allAlgorithms {
			res := Run(g, alg, Options{Workers: 2, Seed: 1})
			checkAgainstTarjan(t, g, alg, res)
		}
	}
}

func TestAllAlgorithmsRandomQuick(t *testing.T) {
	f := func(seed int64, dense bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		factor := 2
		if dense {
			factor = 6
		}
		b := graph.NewBuilder(n)
		for i := 0; i < n*factor; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		tc, _ := seq.Tarjan(g)
		for _, alg := range allAlgorithms {
			res := Run(g, alg, Options{Workers: 4, Seed: seed})
			if !verify.SamePartition(res.Comp, tc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1)), MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAllAlgorithmsRMAT(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 5))
	for _, alg := range allAlgorithms {
		for _, workers := range []int{1, 4} {
			res := Run(g, alg, Options{Workers: workers, Seed: 2})
			checkAgainstTarjan(t, g, alg, res)
		}
	}
}

func TestAllAlgorithmsPlantedGroundTruth(t *testing.T) {
	p := gen.SmallWorldSCC(2000, 400, 2.5, 30, 2.0, 3)
	truth := make([]int32, len(p.Comp))
	for i, c := range p.Comp {
		truth[i] = int32(c)
	}
	for _, alg := range allAlgorithms {
		res := Run(p.Graph, alg, Options{Workers: 4, Seed: 7})
		if !verify.SamePartition(res.Comp, truth) {
			t.Fatalf("%v: partition differs from planted truth", alg)
		}
		if int(res.NumSCCs) != p.NumComps {
			t.Fatalf("%v: NumSCCs = %d, want %d", alg, res.NumSCCs, p.NumComps)
		}
	}
}

func TestAllAlgorithmsRoadLattice(t *testing.T) {
	g := gen.RoadLattice(gen.RoadLatticeConfig{Rows: 60, Cols: 60, TwoWayProb: 0.3, Seed: 9})
	for _, alg := range allAlgorithms {
		res := Run(g, alg, Options{Workers: 4, Seed: 11})
		checkAgainstTarjan(t, g, alg, res)
	}
}

func TestAllAlgorithmsDAG(t *testing.T) {
	g := gen.CitationDAG(4000, 5, 13)
	for _, alg := range allAlgorithms {
		res := Run(g, alg, Options{Workers: 4, Seed: 1})
		if res.NumSCCs != 4000 {
			t.Fatalf("%v: NumSCCs = %d, want 4000", alg, res.NumSCCs)
		}
		// The Patents observation: everything is identified by Trim.
		if res.Phases[PhaseParTrim].Nodes != 4000 {
			t.Fatalf("%v: trim identified %d nodes, want all 4000", alg, res.Phases[PhaseParTrim].Nodes)
		}
	}
}

func TestMethod1FindsGiantInPhase1(t *testing.T) {
	p := gen.SmallWorldSCC(3000, 300, 2.5, 20, 2.0, 21)
	res := Run(p.Graph, Method1, Options{Workers: 2, Seed: 5})
	if res.GiantSCC != 3000 {
		t.Fatalf("GiantSCC = %d, want 3000", res.GiantSCC)
	}
	if res.Phases[PhaseParFWBW].Nodes < 3000 {
		t.Fatalf("phase-1 nodes = %d, want >= 3000", res.Phases[PhaseParFWBW].Nodes)
	}
	if res.Phase1Trials < 1 || res.Phase1Trials > 3 {
		t.Fatalf("trials = %d", res.Phase1Trials)
	}
}

func TestBaselineGiantFoundInPhase2(t *testing.T) {
	// Baseline has no phase 1: the giant SCC must be found by a single
	// phase-2 task (the serialization the paper criticizes).
	p := gen.SmallWorldSCC(2000, 100, 2.5, 10, 2.0, 31)
	res := Run(p.Graph, Baseline, Options{Workers: 2, Seed: 5})
	if res.GiantSCC != 0 {
		t.Fatalf("Baseline reported phase-1 giant of %d", res.GiantSCC)
	}
	if res.Phases[PhaseRecurFWBW].Nodes < 2000 {
		t.Fatalf("recur phase identified %d nodes", res.Phases[PhaseRecurFWBW].Nodes)
	}
}

func TestMethod2SeedsManyTasks(t *testing.T) {
	// After the giant SCC is gone, WCC must seed roughly one task per
	// small component — orders of magnitude more than Method 1's ≤
	// handful of colors (§3.3).
	p := gen.SmallWorldSCC(5000, 800, 2.2, 15, 0.5, 17)
	res1 := Run(p.Graph, Method1, Options{Workers: 2, Seed: 5})
	res2 := Run(p.Graph, Method2, Options{Workers: 2, Seed: 5})
	if res2.WCCComponents == 0 {
		t.Fatal("Method2 found no WCCs")
	}
	if res2.InitialTasks <= res1.InitialTasks {
		t.Fatalf("Method2 initial tasks %d not greater than Method1's %d",
			res2.InitialTasks, res1.InitialTasks)
	}
	if res2.Queue.PeakReady <= res1.Queue.PeakReady {
		t.Fatalf("Method2 peak queue depth %d not greater than Method1's %d",
			res2.Queue.PeakReady, res1.Queue.PeakReady)
	}
}

func TestPhaseNodeAttributionSumsToN(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 6, 9))
	n := int64(g.NumNodes())
	for _, alg := range allAlgorithms {
		res := Run(g, alg, Options{Workers: 4, Seed: 3})
		var sum int64
		for p := Phase(0); p < NumPhases; p++ {
			sum += res.Phases[p].Nodes
		}
		if sum != n {
			t.Fatalf("%v: phase node attribution sums to %d, want %d", alg, sum, n)
		}
	}
}

func TestTaskLogRecorded(t *testing.T) {
	// Planted mid-size SCCs survive trimming, so phase 2 must run tasks.
	p := gen.SmallWorldSCC(1000, 200, 2.0, 20, 1.0, 9)
	res := Run(p.Graph, Method1, Options{Workers: 1, Seed: 3, TraceTasks: 5})
	if len(res.TaskLog) == 0 || len(res.TaskLog) > 5 {
		t.Fatalf("task log has %d entries", len(res.TaskLog))
	}
	for _, rec := range res.TaskLog {
		if rec.SCC < 1 || rec.FW < 0 || rec.BW < 0 || rec.Remain < 0 {
			t.Fatalf("implausible task record %+v", rec)
		}
	}
}

func TestDisableHybridSameResult(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 15))
	tc, _ := seq.Tarjan(g)
	res := Run(g, Method2, Options{Workers: 4, Seed: 3, DisableHybrid: true})
	if !verify.SamePartition(res.Comp, tc) {
		t.Fatal("DisableHybrid changed the decomposition")
	}
}

func TestDisableTrim2SameResult(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 15))
	tc, _ := seq.Tarjan(g)
	res := Run(g, Method2, Options{Workers: 4, Seed: 3, DisableTrim2: true})
	if !verify.SamePartition(res.Comp, tc) {
		t.Fatal("DisableTrim2 changed the decomposition")
	}
}

func TestUniformRandomPivotStillCorrect(t *testing.T) {
	// PivotSample=1 is the paper's plain random pivot.
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 15))
	tc, _ := seq.Tarjan(g)
	res := Run(g, Method1, Options{Workers: 2, Seed: 3, PivotSample: 1})
	if !verify.SamePartition(res.Comp, tc) {
		t.Fatal("random pivot changed the decomposition")
	}
}

func TestKVariantsCorrect(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 23))
	tc, _ := seq.Tarjan(g)
	for _, k := range []int{1, 4, 8, 32} {
		res := Run(g, Method2, Options{Workers: 4, Seed: 3, K: k})
		if !verify.SamePartition(res.Comp, tc) {
			t.Fatalf("K=%d changed the decomposition", k)
		}
	}
}

func TestSizeHistogram(t *testing.T) {
	// 1 triangle + 2 singletons.
	g := graph.FromEdges(5, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 0}})
	res := Run(g, Method2, Options{Workers: 1, Seed: 1})
	h := res.SizeHistogram()
	if h[1] != 2 || h[3] != 1 {
		t.Fatalf("histogram %v", h)
	}
	if res.LargestSCC() != 3 {
		t.Fatalf("LargestSCC = %d", res.LargestSCC())
	}
}

func TestResultPhaseStringNames(t *testing.T) {
	want := []string{"Par-Trim", "Par-FWBW", "Par-Trim'", "Par-WCC", "Recur-FWBW"}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() != want[p] {
			t.Fatalf("phase %d name %q, want %q", p, p.String(), want[p])
		}
	}
	for i, alg := range allAlgorithms {
		want := []string{"Baseline", "Method1", "Method2"}[i]
		if alg.String() != want {
			t.Fatalf("alg name %q", alg.String())
		}
	}
}

func TestWattsStrogatzAllAlgorithms(t *testing.T) {
	g := gen.WattsStrogatz(3000, 3, 0.05, 5)
	tc, _ := seq.Tarjan(g)
	for _, alg := range allAlgorithms {
		res := Run(g, alg, Options{Workers: 4, Seed: 9})
		if !verify.SamePartition(res.Comp, tc) {
			t.Fatalf("%v wrong on Watts-Strogatz", alg)
		}
	}
}

func TestRepeatedRunsIndependent(t *testing.T) {
	// Run must not leak state between invocations on the same graph.
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 4))
	tc, _ := seq.Tarjan(g)
	for i := 0; i < 5; i++ {
		res := Run(g, Method2, Options{Workers: 4, Seed: int64(i)})
		if !verify.SamePartition(res.Comp, tc) {
			t.Fatalf("iteration %d diverged", i)
		}
	}
}

func TestFWBWNoTrimCorrect(t *testing.T) {
	// Fleischer's original algorithm (no trimming) must still produce
	// the exact decomposition, just with every SCC found by a task.
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 31))
	res := Run(g, FWBW, Options{Workers: 4, Seed: 2})
	checkAgainstTarjan(t, g, FWBW, res)
	if res.Phases[PhaseParTrim].Nodes != 0 {
		t.Fatal("FW-BW must not trim")
	}
	if res.Phases[PhaseRecurFWBW].Nodes != int64(g.NumNodes()) {
		t.Fatal("FW-BW must identify everything in the recursive phase")
	}
}

func TestFWBWTaskCountEqualsSCCs(t *testing.T) {
	// Without Trim, every SCC costs one full FW-BW task — the
	// inefficiency Trim removes.
	p := gen.SmallWorldSCC(300, 100, 2.5, 10, 1.0, 4)
	res := Run(p.Graph, FWBW, Options{Workers: 2, Seed: 2})
	if res.Queue.Total < int64(p.NumComps) {
		t.Fatalf("FW-BW ran %d tasks for %d SCCs", res.Queue.Total, p.NumComps)
	}
}

func TestDirOptBFSSameResult(t *testing.T) {
	// Phase 1's direction-optimizing sweeps must not change the
	// decomposition of either method. The graph is large enough for
	// the giant partition's middle levels to sweep bottom-up.
	g := gen.RMAT(gen.DefaultRMAT(15, 8, 17))
	tc, _ := seq.Tarjan(g)
	for _, alg := range []Algorithm{Method1, Method2} {
		res := Run(g, alg, Options{Workers: 4, Seed: 3})
		if !verify.SamePartition(res.Comp, tc) {
			t.Fatalf("%v changed the decomposition", alg)
		}
		if res.GiantSCC == 0 {
			t.Fatalf("%v found no giant SCC", alg)
		}
		if res.Metrics.BitmapLevels == 0 {
			t.Fatalf("%v: no phase-1 level swept bottom-up", alg)
		}
	}
}

func TestGiantThresholdForcesMoreTrials(t *testing.T) {
	// With an unreachable giant threshold, phase 1 must use its full
	// trial budget and still produce a correct decomposition. The
	// planted tail keeps the alive set nonempty across trials.
	p := gen.SmallWorldSCC(1500, 400, 2.2, 15, 1.0, 19)
	g := p.Graph
	tc, _ := seq.Tarjan(g)
	res := Run(g, Method1, Options{Workers: 2, Seed: 3, GiantThreshold: 0.999, MaxPhase1Trials: 4})
	if res.Phase1Trials != 4 {
		t.Fatalf("trials = %d, want the full budget of 4", res.Phase1Trials)
	}
	if !verify.SamePartition(res.Comp, tc) {
		t.Fatal("decomposition wrong under exhausted trials")
	}
}

func TestSingleTrialBudget(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 19))
	tc, _ := seq.Tarjan(g)
	res := Run(g, Method2, Options{Workers: 2, Seed: 3, MaxPhase1Trials: 1})
	if res.Phase1Trials > 1 {
		t.Fatalf("trials = %d", res.Phase1Trials)
	}
	if !verify.SamePartition(res.Comp, tc) {
		t.Fatal("decomposition wrong with one trial")
	}
}

func TestWorkerCountsSweepAllAlgorithms(t *testing.T) {
	// The decomposition must be identical from 1 to 16 workers for
	// every algorithm (exercises the engine's concurrency end to end).
	p := gen.SmallWorldSCC(800, 150, 2.2, 15, 1.0, 23)
	truth := make([]int32, len(p.Comp))
	for i, c := range p.Comp {
		truth[i] = int32(c)
	}
	for _, alg := range []Algorithm{Baseline, Method1, Method2, FWBW} {
		for _, w := range []int{1, 2, 4, 16} {
			res := Run(p.Graph, alg, Options{Workers: w, Seed: 5})
			if !verify.SamePartition(res.Comp, truth) {
				t.Fatalf("%v workers=%d diverged", alg, w)
			}
		}
	}
}

func TestTotalTimeCoversPhases(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(11, 8, 3))
	res := Run(g, Method2, Options{Workers: 2, Seed: 1})
	var phases int64
	for p := Phase(0); p < NumPhases; p++ {
		phases += int64(res.Phases[p].Time)
	}
	if phases == 0 || int64(res.Total) < phases/2 {
		t.Fatalf("total %v vs sum of phases %v", res.Total, phases)
	}
}
