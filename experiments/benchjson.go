package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"repro/scc"
)

// BenchConfig configures a machine-readable benchmark sweep over the
// dataset suite (the data behind BENCH_scc.json).
type BenchConfig struct {
	// Datasets restricts the sweep; nil runs the full suite.
	Datasets []string
	// Scale is the dataset scale factor.
	Scale float64
	// Workers is the Detect worker count (0 = GOMAXPROCS).
	Workers int
	// Warmup runs are executed and discarded before measuring (page
	// the graph in, grow the heap, JIT the branch predictors).
	Warmup int
	// Reps is the number of measured repetitions (>= 1).
	Reps int
	// Seed drives pivot selection.
	Seed int64
	// Kernels selects the trim/WCC kernel set (scc.KernelsWorklist is
	// the zero value and the default).
	Kernels scc.Kernels
}

func (c BenchConfig) withDefaults() BenchConfig {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Reps < 1 {
		c.Reps = 1
	}
	if len(c.Datasets) == 0 {
		c.Datasets = Names()
	}
	return c
}

// BenchRow is one dataset's measured result.
type BenchRow struct {
	Dataset string `json:"dataset"`
	Nodes   int    `json:"nodes"`
	Edges   int64  `json:"edges"`

	// MeanNs and StddevNs summarize the measured repetitions.
	MeanNs   float64 `json:"mean_ns"`
	StddevNs float64 `json:"stddev_ns"`
	MinNs    int64   `json:"min_ns"`

	// AllocsPerOp and BytesPerOp are runtime.MemStats deltas averaged
	// over the measured repetitions.
	AllocsPerOp uint64 `json:"allocs_per_op"`
	BytesPerOp  uint64 `json:"bytes_per_op"`

	NumSCCs int64 `json:"num_sccs"`

	// Metrics is the final repetition's per-phase counter snapshot.
	Metrics scc.MetricsSnapshot `json:"metrics"`
}

// BenchReport is the top-level BENCH_scc.json document.
type BenchReport struct {
	Benchmark string     `json:"benchmark"`
	Algorithm string     `json:"algorithm"`
	Kernels   string     `json:"kernels"`
	Scale     float64    `json:"scale"`
	Workers   int        `json:"workers"`
	Warmup    int        `json:"warmup"`
	Reps      int        `json:"reps"`
	Seed      int64      `json:"seed"`
	GoVersion string     `json:"go_version"`
	Rows      []BenchRow `json:"rows"`

	// Engine is the engine-amortization section (sccbench -exp engine).
	// Each experiment rewrites only its own section, preserving the
	// others' from the existing file.
	Engine *EngineReport `json:"engine,omitempty"`

	// MultiPivot is the kernel-comparison section (sccbench -exp
	// multipivot): worklist vs multi-pivot like-vs-like rows over the
	// high-diameter stress set, gated by benchgate -multipivot.
	MultiPivot *MultiPivotReport `json:"multipivot,omitempty"`
}

// BenchSweep measures Method2 over the configured datasets and
// returns the report. Each dataset gets cfg.Warmup discarded runs and
// cfg.Reps measured runs; wall time is aggregated as mean/stddev/min
// and allocation counts as per-op MemStats deltas.
func BenchSweep(cfg BenchConfig) (BenchReport, error) {
	cfg = cfg.withDefaults()
	rep := BenchReport{
		Benchmark: "Figure6Method2",
		Algorithm: scc.Method2.String(),
		Kernels:   cfg.Kernels.String(),
		Scale:     cfg.Scale,
		Workers:   cfg.Workers,
		Warmup:    cfg.Warmup,
		Reps:      cfg.Reps,
		Seed:      cfg.Seed,
		GoVersion: runtime.Version(),
	}
	for _, name := range cfg.Datasets {
		d, err := Find(name)
		if err != nil {
			return rep, err
		}
		g := d.Build(cfg.Scale)
		opts := scc.Options{
			Algorithm: scc.Method2, Workers: cfg.Workers, Seed: cfg.Seed,
			Kernels: cfg.Kernels,
		}
		row := BenchRow{Dataset: name, Nodes: g.NumNodes(), Edges: g.NumEdges()}

		for i := 0; i < cfg.Warmup; i++ {
			if _, err := scc.Detect(g, opts); err != nil {
				return rep, fmt.Errorf("%s warmup: %w", name, err)
			}
		}
		var (
			sum, sumSq          float64
			minNs               = int64(math.MaxInt64)
			allocsSum, bytesSum uint64
			before, after       runtime.MemStats
		)
		for i := 0; i < cfg.Reps; i++ {
			runtime.ReadMemStats(&before)
			t0 := time.Now()
			res, err := scc.Detect(g, opts)
			elapsed := time.Since(t0).Nanoseconds()
			runtime.ReadMemStats(&after)
			if err != nil {
				return rep, fmt.Errorf("%s rep %d: %w", name, i, err)
			}
			sum += float64(elapsed)
			sumSq += float64(elapsed) * float64(elapsed)
			if elapsed < minNs {
				minNs = elapsed
			}
			allocsSum += after.Mallocs - before.Mallocs
			bytesSum += after.TotalAlloc - before.TotalAlloc
			row.NumSCCs = res.NumSCCs
			row.Metrics = res.Metrics
		}
		n := float64(cfg.Reps)
		row.MeanNs = sum / n
		if cfg.Reps > 1 {
			// Sample stddev; clamp tiny negative variance from rounding.
			v := (sumSq - sum*sum/n) / (n - 1)
			if v > 0 {
				row.StddevNs = math.Sqrt(v)
			}
		}
		row.MinNs = minNs
		row.AllocsPerOp = allocsSum / uint64(cfg.Reps)
		row.BytesPerOp = bytesSum / uint64(cfg.Reps)
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// ReadBenchJSON loads an existing report, for merging a freshly
// measured section into the other sections' previous values.
func ReadBenchJSON(path string) (BenchReport, error) {
	var rep BenchReport
	f, err := os.Open(path)
	if err != nil {
		return rep, err
	}
	defer f.Close()
	err = json.NewDecoder(f).Decode(&rep)
	return rep, err
}

// WriteBenchJSON writes the report as indented JSON.
func WriteBenchJSON(w io.Writer, rep BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// FormatBench renders the report as an aligned text table.
func FormatBench(rep BenchReport) string {
	out := fmt.Sprintf("Method2 bench (scale %.2g, %d warmup, %d reps, workers %d, kernels %s):\n",
		rep.Scale, rep.Warmup, rep.Reps, rep.Workers, rep.Kernels)
	out += fmt.Sprintf("%-10s %10s %12s %12s %12s %10s %8s\n",
		"dataset", "nodes", "mean", "stddev", "allocs/op", "B/op", "SCCs")
	for _, r := range rep.Rows {
		out += fmt.Sprintf("%-10s %10d %12s %12s %12d %10d %8d\n",
			r.Dataset, r.Nodes,
			time.Duration(r.MeanNs).Round(time.Microsecond),
			time.Duration(r.StddevNs).Round(time.Microsecond),
			r.AllocsPerOp, r.BytesPerOp, r.NumSCCs)
	}
	return out
}
