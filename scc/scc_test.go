package scc

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/gen"
	"repro/graph"
)

var allAlgorithms = []Algorithm{Tarjan, Kosaraju, Baseline, Method1, Method2, FWBW, OBF}

func TestDetectAllAlgorithmsAgree(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 8, 6))
	var ref []int32
	for _, alg := range allAlgorithms {
		res, err := Detect(g, Options{Algorithm: alg, Workers: 4, Seed: 1, Validate: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Algorithm != alg {
			t.Fatalf("result algorithm %v, want %v", res.Algorithm, alg)
		}
		if ref == nil {
			ref = res.Comp
			continue
		}
		if !SamePartition(ref, res.Comp) {
			t.Fatalf("%v disagrees with %v", alg, allAlgorithms[0])
		}
	}
}

func TestDetectNilGraph(t *testing.T) {
	if _, err := Detect(nil, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestDetectUnknownAlgorithm(t *testing.T) {
	g := graph.FromEdges(1, nil)
	if _, err := Detect(g, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestDetectDefaultIsMethod2(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	res, err := Detect(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != Method2 {
		t.Fatalf("default algorithm %v", res.Algorithm)
	}
	if res.NumSCCs != 2 {
		t.Fatalf("NumSCCs = %d", res.NumSCCs)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}, {From: 1, To: 2}})
	res, err := Detect(g, Options{Algorithm: Tarjan})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, res.Comp); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	bad := append([]int32(nil), res.Comp...)
	bad[2] = bad[0]
	if err := Validate(g, bad); err == nil {
		t.Fatal("corrupted decomposition accepted")
	}
}

func TestRenumber(t *testing.T) {
	dense, k := Renumber([]int32{7, 7, 3, 9, 3})
	if k != 3 {
		t.Fatalf("k = %d", k)
	}
	want := []int32{0, 0, 1, 2, 1}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("dense = %v, want %v", dense, want)
		}
	}
}

func TestRenumberEmpty(t *testing.T) {
	dense, k := Renumber(nil)
	if len(dense) != 0 || k != 0 {
		t.Fatal("empty renumber misbehaved")
	}
}

func TestComponentSizesAndHistogram(t *testing.T) {
	comp := []int32{0, 0, 0, 5, 5, 9} // sizes 3, 2, 1
	sizes := ComponentSizes(comp)
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("sizes = %v", sizes)
	}
	hist := SizeHistogram(comp)
	if hist[1] != 1 || hist[2] != 1 || hist[3] != 1 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestLogSizeHistogram(t *testing.T) {
	// sizes: 1,1,2,3,4,8 → buckets: [2,2(sizes 2,3),1(size 4..7),1(size 8)]
	comp := []int32{0, 1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5}
	b := LogSizeHistogram(comp)
	want := []int64{2, 2, 1, 1}
	if len(b) != len(want) {
		t.Fatalf("buckets = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	p := gen.SmallWorldSCC(500, 100, 2.5, 10, 1.0, 3)
	res, err := Detect(p.Graph, Options{Algorithm: Method2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.LargestSCC() != 500 {
		t.Fatalf("LargestSCC = %d", res.LargestSCC())
	}
	if res.TrivialSCCs() <= 0 {
		t.Fatal("no trivial SCCs found in power-law tail")
	}
	h := res.SizeHistogram()
	if h[500] != 1 {
		t.Fatalf("histogram missing giant: h[500]=%d", h[500])
	}
}

func TestTraceScheduleExposed(t *testing.T) {
	p := gen.SmallWorldSCC(500, 200, 2.0, 20, 1.0, 5)
	res, err := Detect(p.Graph, Options{Algorithm: Method2, Seed: 2, TraceSchedule: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TaskTrace) == 0 {
		t.Fatal("TaskTrace empty despite TraceSchedule")
	}
	for i, tr := range res.TaskTrace {
		if tr.Parent >= int32(i) {
			t.Fatalf("task %d has parent %d (not executed before it)", i, tr.Parent)
		}
	}
}

func TestAlgorithmStrings(t *testing.T) {
	for _, tc := range []struct {
		a    Algorithm
		want string
	}{{Tarjan, "Tarjan"}, {Kosaraju, "Kosaraju"}, {Baseline, "Baseline"},
		{Method1, "Method1"}, {Method2, "Method2"}, {Algorithm(42), "Algorithm(42)"}} {
		if tc.a.String() != tc.want {
			t.Fatalf("%d.String() = %q", tc.a, tc.a.String())
		}
	}
}

// TestParseAlgorithm round-trips every algorithm through its
// lowercased name, accepts the mixed-case and "fwbw" spellings the
// command-line tools take, and rejects an unknown or deleted name with
// an error that lists exactly the seven valid ones.
func TestParseAlgorithm(t *testing.T) {
	cases := map[string]Algorithm{"Kosaraju": Kosaraju, "BASELINE": Baseline, "fwbw": FWBW, "FW-BW": FWBW}
	for _, a := range allAlgorithms {
		cases[strings.ToLower(a.String())] = a
	}
	for in, want := range cases {
		if got, err := ParseAlgorithm(in); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	const names = "(want method2|method1|baseline|tarjan|kosaraju|fw-bw|obf)"
	for _, in := range []string{"nope", "coloring", "multistep", "gabow"} {
		if _, err := ParseAlgorithm(in); err == nil || !strings.HasSuffix(err.Error(), names) {
			t.Errorf("ParseAlgorithm(%q) error = %v; want one ending %s", in, err, names)
		}
	}
}

func TestFWBWPublicAPI(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 6, 6))
	res, err := Detect(g, Options{Algorithm: FWBW, Seed: 1, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != FWBW || res.Algorithm.String() != "FW-BW" {
		t.Fatalf("algorithm = %v", res.Algorithm)
	}
	ref, _ := Detect(g, Options{Algorithm: Tarjan})
	if !SamePartition(res.Comp, ref.Comp) {
		t.Fatal("FW-BW disagrees with Tarjan")
	}
}

func TestOBFPublicAPI(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 12))
	res, err := Detect(g, Options{Algorithm: OBF, Seed: 1, Workers: 4, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != OBF || res.Algorithm.String() != "OBF" {
		t.Fatalf("algorithm = %v", res.Algorithm)
	}
	ref, _ := Detect(g, Options{Algorithm: Tarjan})
	if !SamePartition(res.Comp, ref.Comp) {
		t.Fatal("OBF disagrees with Tarjan")
	}
	if res.NumSCCs != ref.NumSCCs {
		t.Fatalf("NumSCCs %d != %d", res.NumSCCs, ref.NumSCCs)
	}
}

func TestDetectRejectsBadOptions(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	for _, opts := range []Options{
		{K: -1},
		{GiantThreshold: -0.5},
		{GiantThreshold: 1.5},
		{MaxPhase1Trials: -2},
		{TraceTasks: -1},
		{PivotSample: -3},
	} {
		if _, err := Detect(g, opts); err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
}

func TestDetectConcurrentOnSharedGraph(t *testing.T) {
	// Graphs are immutable; concurrent Detect calls on one graph must
	// not interfere (run under -race).
	g := gen.RMAT(gen.DefaultRMAT(10, 6, 3))
	ref, _ := Detect(g, Options{Algorithm: Tarjan})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := Detect(g, Options{Algorithm: Method2, Seed: int64(i), Workers: 2})
			if err != nil {
				errs[i] = err
				return
			}
			if !SamePartition(res.Comp, ref.Comp) {
				errs[i] = fmt.Errorf("run %d diverged", i)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
