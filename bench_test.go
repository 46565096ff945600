// Repository-level benchmarks: one benchmark (or benchmark family) per
// table and figure of the paper, plus the ablations for the §3.4, §4.1
// and §4.3 implementation claims. Run with
//
//	go test -bench=. -benchmem
//
// BENCH_SCALE (default 0.25) controls dataset sizes; 1.0 matches the
// harness's full benchmark size.
package repro

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/experiments"
	"repro/graph"
	"repro/scc"
	"repro/schedsim"
)

func benchScale() float64 {
	if s := os.Getenv("BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.25
}

// graphCache builds each dataset once per process.
var (
	graphMu    sync.Mutex
	graphCache = map[string]*graph.Graph{}
)

func dataset(b *testing.B, name string) *graph.Graph {
	b.Helper()
	graphMu.Lock()
	defer graphMu.Unlock()
	if g, ok := graphCache[name]; ok {
		return g
	}
	d, err := experiments.Find(name)
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build(benchScale())
	graphCache[name] = g
	return g
}

func benchDetect(b *testing.B, name string, alg scc.Algorithm, opts scc.Options) {
	g := dataset(b, name)
	opts.Algorithm = alg
	b.SetBytes(g.NumEdges() * 4) // bandwidth-ish: one int32 per edge
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scc.Detect(g, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 1: dataset statistics -----------------------------------

func BenchmarkTable1Stats(b *testing.B) {
	for _, name := range experiments.Names() {
		b.Run(name, func(b *testing.B) {
			g := dataset(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.ComputeStats(g, 0)
			}
		})
	}
}

// --- Figures 6 and 7: the four algorithms on all nine datasets -----
//
// These are the raw series behind the speedup plots: Tarjan is the
// sequential baseline; Baseline/Method1/Method2 run with GOMAXPROCS
// workers. Pair with cmd/sccbench -exp figure6 for the thread sweeps.

func BenchmarkFigure6Tarjan(b *testing.B) {
	for _, name := range experiments.Names() {
		b.Run(name, func(b *testing.B) { benchDetect(b, name, scc.Tarjan, scc.Options{}) })
	}
}

func BenchmarkFigure6Baseline(b *testing.B) {
	for _, name := range experiments.Names() {
		b.Run(name, func(b *testing.B) { benchDetect(b, name, scc.Baseline, scc.Options{Seed: 1}) })
	}
}

func BenchmarkFigure6Method1(b *testing.B) {
	for _, name := range experiments.Names() {
		b.Run(name, func(b *testing.B) { benchDetect(b, name, scc.Method1, scc.Options{Seed: 1}) })
	}
}

func BenchmarkFigure6Method2(b *testing.B) {
	for _, name := range experiments.Names() {
		b.Run(name, func(b *testing.B) { benchDetect(b, name, scc.Method2, scc.Options{Seed: 1}) })
	}
}

// BenchmarkFigure6Model measures the modeled thread-sweep projection
// itself (instrumented 1-worker run + 6-point machine-model sweep).
func BenchmarkFigure6Model(b *testing.B) {
	g := dataset(b, "flickr")
	machine := schedsim.PaperMachine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Workers: 1, Seed: 1, TraceSchedule: true})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range experiments.DefaultThreads {
			experiments.ModelTotal(res, machine, p)
		}
	}
}

// --- Figure 2 and Figure 9: SCC size distributions ------------------

func BenchmarkFigure2Histogram(b *testing.B) {
	g := dataset(b, "livej")
	res, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scc.LogSizeHistogram(res.Comp)
	}
}

func BenchmarkFigure9Distributions(b *testing.B) {
	for _, name := range []string{"patents", "ca-road", "orkut"} {
		b.Run(name, func(b *testing.B) {
			g := dataset(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				scc.LogSizeHistogram(res.Comp)
			}
		})
	}
}

// --- Figure 8: per-phase attribution happens inside every Method2
// run; this bench isolates the instrumented run it is read from.

func BenchmarkFigure8PhaseAttribution(b *testing.B) {
	benchDetect(b, "wiki", scc.Method2, scc.Options{Seed: 1})
}

// --- §3.3 logs: task tracing and queue statistics -------------------

func BenchmarkTaskLogTracing(b *testing.B) {
	benchDetect(b, "flickr", scc.Method1, scc.Options{Seed: 1, TraceTasks: 5})
}

// --- Ablations ------------------------------------------------------

// BenchmarkAblationHybrid quantifies §4.1: per-task node lists versus
// full Color-array scans.
func BenchmarkAblationHybrid(b *testing.B) {
	b.Run("hybrid", func(b *testing.B) {
		benchDetect(b, "flickr", scc.Method2, scc.Options{Seed: 1})
	})
	b.Run("colorscan", func(b *testing.B) {
		benchDetect(b, "flickr", scc.Method2, scc.Options{Seed: 1, DisableHybrid: true})
	})
}

// BenchmarkAblationTrim2 quantifies §3.4: Method 2 with and without
// the size-2 trimming pass.
func BenchmarkAblationTrim2(b *testing.B) {
	b.Run("with-trim2", func(b *testing.B) {
		benchDetect(b, "flickr", scc.Method2, scc.Options{Seed: 1})
	})
	b.Run("without-trim2", func(b *testing.B) {
		benchDetect(b, "flickr", scc.Method2, scc.Options{Seed: 1, DisableTrim2: true})
	})
}

// BenchmarkAblationK sweeps the work-queue batch size (§4.3).
func BenchmarkAblationK(b *testing.B) {
	for _, k := range []int{1, 8, 32} {
		b.Run("K="+strconv.Itoa(k), func(b *testing.B) {
			benchDetect(b, "flickr", scc.Method2, scc.Options{Seed: 1, K: k})
		})
	}
}

// BenchmarkAblationPivot compares the degree-product pivot heuristic
// with the paper's uniform-random pivot for phase 1.
func BenchmarkAblationPivot(b *testing.B) {
	b.Run("degree-heuristic", func(b *testing.B) {
		benchDetect(b, "livej", scc.Method1, scc.Options{Seed: 1})
	})
	b.Run("uniform-random", func(b *testing.B) {
		benchDetect(b, "livej", scc.Method1, scc.Options{Seed: 1, PivotSample: 1})
	})
}

// --- Sequential baselines -------------------------------------------

func BenchmarkSequential(b *testing.B) {
	b.Run("tarjan", func(b *testing.B) { benchDetect(b, "livej", scc.Tarjan, scc.Options{}) })
	b.Run("kosaraju", func(b *testing.B) { benchDetect(b, "livej", scc.Kosaraju, scc.Options{}) })
}

// --- Related-work roster (§1/§2): FW-BW without Trim, and OBF --------

func BenchmarkRelatedFWBW(b *testing.B) {
	benchDetect(b, "baidu", scc.FWBW, scc.Options{Seed: 1})
}

func BenchmarkRelatedOBF(b *testing.B) {
	benchDetect(b, "baidu", scc.OBF, scc.Options{Seed: 1})
}

func BenchmarkRelatedColoring(b *testing.B) {
	benchDetect(b, "baidu", scc.Coloring, scc.Options{})
}

func BenchmarkRelatedMultiStep(b *testing.B) {
	benchDetect(b, "baidu", scc.MultiStep, scc.Options{Seed: 1})
}

// --- Work-efficient kernels: support-pointer Trim + union-find WCC ---

// BenchmarkKernels compares the legacy round-based Par-Trim/Par-WCC
// and the worklist kernels like-for-like on the dataset suite.
// benchgate's -kernels flag keys off the kernels=<name> sub-benchmark
// tag.
func BenchmarkKernels(b *testing.B) {
	for _, kern := range []scc.Kernels{scc.KernelsWorklist, scc.KernelsLegacy} {
		b.Run("kernels="+kern.String(), func(b *testing.B) {
			for _, name := range []string{"flickr", "patents", "ca-road", "deep-chain", "zig-zag"} {
				b.Run(name, func(b *testing.B) {
					benchDetect(b, name, scc.Method2, scc.Options{Seed: 1, Kernels: kern})
				})
			}
		})
	}
}

// BenchmarkKernelsDeepChain is the adversarial deep-peeling shape: a
// path graph whose node ids zig-zag between the two ends of the id
// range, so the round-based kernel's in-scan-order cascade (which
// trims an id-sorted path in a handful of rounds) is defeated and it
// pays Θ(n) rescan rounds, while support-pointer trimming still touches
// each edge a constant number of times. This is the benchmark where the
// O(N+M) bound separates from O(rounds × edges).
func BenchmarkKernelsDeepChain(b *testing.B) {
	n := int(40000 * benchScale())
	id := func(pos int) graph.NodeID {
		if pos%2 == 0 {
			return graph.NodeID(pos / 2)
		}
		return graph.NodeID(n - 1 - pos/2)
	}
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{From: id(i), To: id(i + 1)}
	}
	g := graph.FromEdges(n, edges)
	for _, kern := range []scc.Kernels{scc.KernelsWorklist, scc.KernelsLegacy} {
		b.Run("kernels="+kern.String(), func(b *testing.B) {
			b.SetBytes(g.NumEdges() * 4)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := scc.Detect(g, scc.Options{Algorithm: scc.Method2, Seed: 1, Kernels: kern}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- API overhead: context and observer layer ----------------------

// BenchmarkDetect is the reference cost of the primary entry point
// with no observer — the configuration whose overhead versus the raw
// engine must stay within noise.
func BenchmarkDetect(b *testing.B) {
	b.Run("nil-observer", func(b *testing.B) {
		benchDetect(b, "livej", scc.Method2, scc.Options{Seed: 1})
	})
	b.Run("counting-observer", func(b *testing.B) {
		var count atomic.Int64
		benchDetect(b, "livej", scc.Method2, scc.Options{Seed: 1,
			Observer: scc.ObserverFunc(func(scc.Event) { count.Add(1) })})
	})
}
