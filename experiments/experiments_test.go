package experiments

import (
	"strings"
	"testing"

	"repro/scc"
	"repro/schedsim"
)

// testScale keeps experiment tests fast; shape assertions hold from
// this size up.
const testScale = 0.125

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 9 {
		t.Fatalf("suite has %d datasets, want the paper's 9", len(suite))
	}
	want := []string{"livej", "flickr", "baidu", "wiki", "friend", "twitter", "orkut", "patents", "ca-road"}
	for i, d := range suite {
		if d.Name != want[i] {
			t.Fatalf("dataset %d is %q, want %q", i, d.Name, want[i])
		}
		if d.Paper.Nodes == 0 || d.Paper.LargestSCC == 0 && d.Name != "patents" {
			t.Fatalf("%s missing paper numbers", d.Name)
		}
	}
}

func TestFindAndNames(t *testing.T) {
	if _, err := Find("flickr"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if len(Names()) != 9 {
		t.Fatal("Names incomplete")
	}
}

func TestDatasetsDeterministic(t *testing.T) {
	d, _ := Find("baidu")
	g1, g2 := d.Build(testScale), d.Build(testScale)
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("dataset generation not deterministic")
	}
}

func TestSuiteStructuralTargets(t *testing.T) {
	for _, d := range Suite() {
		g := d.Build(testScale)
		res, err := scc.Detect(g, scc.Options{Algorithm: scc.Tarjan})
		if err != nil {
			t.Fatal(err)
		}
		giant := float64(res.LargestSCC()) / float64(g.NumNodes())
		switch d.Name {
		case "patents":
			if giant*float64(g.NumNodes()) != 1 {
				t.Fatalf("patents has a non-trivial SCC (giant=%f)", giant)
			}
		case "orkut":
			if giant < 0.8 {
				t.Fatalf("orkut giant %f, want near-total", giant)
			}
		default:
			// Every other graph has a giant SCC covering a significant
			// fraction, plus many trivial SCCs.
			if giant < 0.15 || giant > 0.95 {
				t.Fatalf("%s giant fraction %f out of small-world band", d.Name, giant)
			}
			if res.NumSCCs < int64(g.NumNodes())/20 {
				t.Fatalf("%s has too few SCCs (%d) for a power-law tail", d.Name, res.NumSCCs)
			}
		}
	}
}

func TestTable1RowsAndFormat(t *testing.T) {
	rows := Table1(testScale, 2)
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 || r.Edges == 0 {
			t.Fatalf("%s row empty", r.Name)
		}
		if r.LargestSCC <= 0 {
			t.Fatalf("%s largest SCC %d", r.Name, r.LargestSCC)
		}
		if r.Diameter <= 0 {
			t.Fatalf("%s diameter %d", r.Name, r.Diameter)
		}
	}
	// ca-road must have by far the largest diameter (non-small-world).
	var road, maxOther int
	for _, r := range rows {
		if r.Name == "ca-road" {
			road = r.Diameter
		} else if r.Diameter > maxOther {
			maxOther = r.Diameter
		}
	}
	if road <= 2*maxOther {
		t.Fatalf("ca-road diameter %d not dominant over %d", road, maxOther)
	}
	text := FormatTable1(rows)
	if !strings.Contains(text, "ca-road*") || !strings.Contains(text, "livej") {
		t.Fatalf("format missing rows:\n%s", text)
	}
}

func TestSizeDistributionShape(t *testing.T) {
	d, _ := Find("livej")
	sd := SizeDistribution(d, testScale)
	if sd.Trivial == 0 {
		t.Fatal("no size-1 SCCs")
	}
	if sd.Largest < int64(float64(sd.Nodes)*0.15) {
		t.Fatalf("giant %d too small for n=%d", sd.Largest, sd.Nodes)
	}
	// Power law: bucket counts must decay from size-1 up.
	if len(sd.Buckets) < 3 {
		t.Fatalf("buckets %v too shallow", sd.Buckets)
	}
	if sd.Buckets[0] < sd.Buckets[1] || sd.Buckets[1] < sd.Buckets[2] {
		t.Fatalf("bucket counts not decaying: %v", sd.Buckets)
	}
	if out := FormatSizeDist(sd); !strings.Contains(out, "livej") {
		t.Fatal("format broken")
	}
}

func TestTaskLogShape(t *testing.T) {
	d, _ := Find("flickr")
	tl := TaskLog(d, testScale, 1, 5)
	if len(tl.Records) == 0 {
		t.Fatal("no task records")
	}
	// §3.3's observation: Method 1's early tasks find small SCCs and
	// produce little further partitioning, while Method 2's WCC
	// seeding gives a far deeper queue.
	if tl.PeakDepthM2 < 10*tl.PeakDepthM1 {
		t.Fatalf("M2 peak %d not ≫ M1 peak %d", tl.PeakDepthM2, tl.PeakDepthM1)
	}
	if tl.TasksM2 < 50 {
		t.Fatalf("M2 seeded only %d tasks", tl.TasksM2)
	}
	if out := FormatTaskLog(tl); !strings.Contains(out, "Remain") {
		t.Fatal("format broken")
	}
}

func TestFigure8FractionsSumToOne(t *testing.T) {
	rows := Figure8(testScale, 1)
	if len(rows) != 9 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		sum := 0.0
		for _, f := range r.Fractions {
			if f < 0 || f > 1 {
				t.Fatalf("%s fraction %f out of range", r.Dataset, f)
			}
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s fractions sum to %f", r.Dataset, sum)
		}
	}
	if out := FormatFigure8(rows); !strings.Contains(out, "Par-WCC") {
		t.Fatal("format broken")
	}
}

func TestFigure6ModeledShape(t *testing.T) {
	d, _ := Find("flickr") // heaviest mid-size tail → clearest M2 advantage
	s := Figure6(d, testScale, []int{1, 8, 32}, Modeled, schedsim.PaperMachine(), 1)
	if s.TarjanTime <= 0 {
		t.Fatal("no Tarjan baseline")
	}
	for _, alg := range []string{"Baseline", "Method1", "Method2"} {
		pts := s.Series[alg]
		if len(pts) != 3 {
			t.Fatalf("%s has %d points", alg, len(pts))
		}
		// Modeled time must not increase with threads by more than
		// noise (the model is monotone except for barrier effects).
		if pts[2].Time > pts[0].Time {
			t.Fatalf("%s modeled time grew with threads: %v → %v", alg, pts[0].Time, pts[2].Time)
		}
	}
	// The paper's headline ordering at high thread counts. Method 1
	// and Method 2 tie on some instances (the paper's Wiki/Orkut
	// plots), so only a clear regression fails; Baseline must lose
	// decisively to both.
	m2 := s.Series["Method2"][2].Speedup
	m1 := s.Series["Method1"][2].Speedup
	base := s.Series["Baseline"][2].Speedup
	if m2 < 0.9*m1 {
		t.Fatalf("Method2 regressed vs Method1: %.2f vs %.2f", m2, m1)
	}
	if m1 <= base || m2 <= base {
		t.Fatalf("methods do not beat Baseline: M2=%.2f M1=%.2f Base=%.2f", m2, m1, base)
	}
	if out := FormatFigure6(s); !strings.Contains(out, "flickr") {
		t.Fatal("format broken")
	}
}

func TestFigure6MeasuredRuns(t *testing.T) {
	d, _ := Find("baidu")
	s := Figure6(d, testScale, []int{1, 2}, Measured, schedsim.PaperMachine(), 1)
	for alg, pts := range s.Series {
		for _, p := range pts {
			if p.Time <= 0 {
				t.Fatalf("%s measured time %v", alg, p.Time)
			}
		}
	}
}

func TestFigure7Breakdown(t *testing.T) {
	d, _ := Find("flickr")
	rows := Figure7(d, testScale, []int{1, 32}, Modeled, schedsim.PaperMachine(), 1)
	if len(rows) != 6 { // 3 algorithms × 2 thread counts
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Fatalf("%s@%d total %v", r.Algorithm, r.Threads, r.Total)
		}
	}
	// Baseline's recursive phase must dominate its breakdown and not
	// shrink with threads (the giant-SCC serialization).
	var base1, base32 BreakdownRow
	for _, r := range rows {
		if r.Algorithm == "Baseline" && r.Threads == 1 {
			base1 = r
		}
		if r.Algorithm == "Baseline" && r.Threads == 32 {
			base32 = r
		}
	}
	shrink := float64(base32.Phases[scc.PhaseRecurFWBW]) / float64(base1.Phases[scc.PhaseRecurFWBW])
	if shrink < 0.4 {
		t.Fatalf("Baseline recursive phase shrank %.2fx with threads; giant SCC should serialize it", shrink)
	}
	if out := FormatFigure7("flickr", rows); !strings.Contains(out, "Recur-FWBW") {
		t.Fatal("format broken")
	}
}

func TestGeoMeanSpeedup(t *testing.T) {
	series := []SpeedupSeries{
		{Dataset: "a", Series: map[string][]SpeedupPoint{"Method2": {{Threads: 32, Speedup: 4}}}},
		{Dataset: "b", Series: map[string][]SpeedupPoint{"Method2": {{Threads: 32, Speedup: 16}}}},
		{Dataset: "ca-road", Series: map[string][]SpeedupPoint{"Method2": {{Threads: 32, Speedup: 0.1}}}},
	}
	got := GeoMeanSpeedup(series, "Method2", 32, "ca-road")
	if got < 7.9 || got > 8.1 {
		t.Fatalf("geomean = %f, want 8", got)
	}
	if GeoMeanSpeedup(series, "Method2", 99) != 0 {
		t.Fatal("missing thread count should yield 0")
	}
}

func TestAblationHybridFaster(t *testing.T) {
	d, _ := Find("flickr")
	h := AblationHybrid(d, testScale, 1)
	// The hybrid representation must win; on large graphs the paper
	// reports ~10x — at test scale, with machine noise, we only insist
	// on a clear win.
	if h.Speedup() < 1.25 {
		t.Fatalf("hybrid speedup only %.2fx", h.Speedup())
	}
}

func TestAblationTrim2CutsWCC(t *testing.T) {
	d, _ := Find("flickr")
	a := AblationTrim2(d, testScale, 1)
	if a.Pairs == 0 {
		t.Fatal("Trim2 claimed no pairs on flickr analog")
	}
	// The pairs Trim2 claims no longer seed Par-WCC tasks.
	if a.WCCTasksWith >= a.WCCTasksWithout {
		t.Fatalf("Trim2 did not cut the WCC task count: %d vs %d", a.WCCTasksWith, a.WCCTasksWithout)
	}
	// Trim2 must not make WCC slower by more than noise: the median
	// Par-WCC time with it stays within 1.3x the median without.
	if float64(a.WCCWith) > 1.3*float64(a.WCCWithout) {
		t.Fatalf("Trim2 made WCC slower: %v vs %v", a.WCCWith, a.WCCWithout)
	}
}

func TestAblationKSweep(t *testing.T) {
	d, _ := Find("flickr")
	pts := AblationK(d, testScale, 1, []int{1, 8})
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Total <= 0 || p.PeakReady <= 0 {
			t.Fatalf("K=%d: %+v", p.K, p)
		}
	}
	out := FormatAblations(AblationHybrid(d, testScale, 1), AblationTrim2(d, testScale, 1), pts)
	if !strings.Contains(out, "K=1") {
		t.Fatal("format broken")
	}
}

func TestRelatedComparison(t *testing.T) {
	d, _ := Find("baidu")
	rc := Related(d, testScale, 1)
	want := []string{"Tarjan", "Kosaraju", "FW-BW", "OBF", "Baseline", "Method1", "Method2"}
	if len(rc.Rows) != len(want) {
		t.Fatalf("%d rows, want %d algorithms", len(rc.Rows), len(want))
	}
	for i, r := range rc.Rows {
		if r.Algorithm != want[i] {
			t.Fatalf("row %d is %s, want %s", i, r.Algorithm, want[i])
		}
		if r.Time <= 0 {
			t.Fatalf("%s time %v", r.Algorithm, r.Time)
		}
	}
	if out := FormatRelated(rc); !strings.Contains(out, "OBF") || !strings.Contains(out, "FW-BW") {
		t.Fatal("format broken")
	}
}

func TestSmallWorldSweep(t *testing.T) {
	points := SmallWorldSweep(3000, 3, []float64{0, 0.05, 1.0}, 1)
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// §2.2: rewiring collapses the diameter dramatically.
	if points[0].Diameter < 5*points[1].Diameter {
		t.Fatalf("diameter %d → %d: no collapse at beta=0.05", points[0].Diameter, points[1].Diameter)
	}
	if points[2].Diameter > points[1].Diameter {
		t.Fatalf("diameter grew from beta 0.05 to 1.0: %d → %d", points[1].Diameter, points[2].Diameter)
	}
	// And the BFS level count tracks the diameter class.
	if points[0].Phase1Levels != 0 && points[2].Phase1Levels != 0 &&
		points[0].Phase1Levels < points[2].Phase1Levels {
		t.Fatalf("BFS levels did not shrink with diameter: %d vs %d",
			points[0].Phase1Levels, points[2].Phase1Levels)
	}
	if out := FormatSmallWorld(points); !strings.Contains(out, "beta") {
		t.Fatal("format broken")
	}
}
