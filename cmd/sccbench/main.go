// Command sccbench regenerates the paper's tables and figures on the
// synthetic dataset suite.
//
// Usage:
//
//	sccbench -exp table1                         # Table 1
//	sccbench -exp figure2                        # Fig 2  (livej SCC sizes)
//	sccbench -exp figure6 [-data flickr] [-mode modeled|measured]
//	sccbench -exp figure7 [-data flickr]
//	sccbench -exp figure8                        # per-phase fractions
//	sccbench -exp figure9                        # all SCC size dists
//	sccbench -exp tasklog                        # §3.3 execution log
//	sccbench -exp ablations [-data flickr]       # §3.4/§4.1/§4.3 claims
//	sccbench -exp bench [-warmup 1] [-reps 5] [-kernels worklist|legacy]
//	                                             # JSON perf report (BENCH_scc.json)
//	sccbench -exp engine [-stream 64] [-engine-workers 4]
//	                                             # engine-amortization report
//	sccbench -exp serve [-serve-clients 16] [-serve-duration 800ms]
//	                                             # serving load harness (BENCH_serve.json)
//	sccbench -exp recover [-recover-batches 6]
//	                                             # crash-recovery matrix (BENCH_serve.json "recover" section)
//	sccbench -exp incr [-incr-batches 32] [-incr-batch-size 16]
//	                                             # incremental maintenance (BENCH_serve.json "incr" section)
//	sccbench -exp all                            # everything except bench/engine/serve/recover/incr
//
// An -exp value outside that list exits 2 and prints the valid names.
//
// -scale shrinks the datasets (1.0 ≈ 40-250k nodes per graph; use
// 0.25 for quick runs). -mode modeled (default) projects thread sweeps
// through the machine model of the paper's 2×8-core Xeon; -mode
// measured runs real thread counts on this host.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/experiments"
	"repro/scc"
	"repro/schedsim"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(experimentNames, "|"))
		data     = flag.String("data", "", "restrict figure6/figure7/tasklog/ablations to one dataset (default: all for figure6, flickr otherwise)")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor (halving repeatedly shrinks node counts)")
		mode     = flag.String("mode", "modeled", "thread-sweep mode: modeled|measured")
		threads  = flag.String("threads", "1,2,4,8,16,32", "comma-separated thread counts")
		seed     = flag.Int64("seed", 1, "pivot-selection seed")
		csvDir   = flag.String("csv", "", "also write machine-readable CSV files into this directory")
		machSpec = flag.String("machine", "", "machine model for modeled sweeps, e.g. 8x1.0,8x0.7,16x0.35@1us (default: the paper's 2x8-core SMT Xeon)")

		jsonPath = flag.String("json", "BENCH_scc.json", "bench experiment: write the JSON report to this file (empty = stdout only)")
		warmup   = flag.Int("warmup", 1, "bench experiment: discarded warmup runs per dataset")
		reps     = flag.Int("reps", 5, "bench experiment: measured repetitions per dataset")
		workers  = flag.Int("workers", 0, "bench experiment: Detect workers (0 = GOMAXPROCS)")
		kernSpec = flag.String("kernels", "worklist", "bench experiment: kernel set: worklist|legacy")

		stream     = flag.Int("stream", 64, "engine experiment: graphs per stream pass")
		engWorkers = flag.Int("engine-workers", 0, "engine experiment: fixed Detect worker count (0 = default 1)")

		serveJSON     = flag.String("serve-json", "BENCH_serve.json", "serve/recover experiments: write the JSON report to this file (empty = stdout only)")
		serveClients  = flag.Int("serve-clients", 16, "serve experiment: concurrent load clients")
		serveDuration = flag.Duration("serve-duration", 800*time.Millisecond, "serve experiment: per-scenario load window")

		recoverBatches = flag.Int("recover-batches", 6, "recover experiment: durable update batches in the crash workload")

		incrBatches   = flag.Int("incr-batches", 32, "incr experiment: update batches per mix")
		incrBatchSize = flag.Int("incr-batch-size", 16, "incr experiment: updates per batch")
	)
	flag.Parse()
	m, err := parseMode(*mode)
	if err == nil {
		err = checkExperiment(*exp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sccbench:", err)
		os.Exit(2)
	}

	ths, err := parseThreads(*threads)
	if err != nil {
		fatal(err)
	}
	machine := schedsim.PaperMachine()
	if *machSpec != "" {
		var err error
		if machine, err = schedsim.ParseMachine(*machSpec); err != nil {
			fatal(err)
		}
	}

	writeCSV := func(name string, write func(w *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			fatal(err)
		}
		if err := write(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	run := func(name string, fn func()) {
		if *exp == name || *exp == "all" {
			fmt.Printf("=== %s ===\n", name)
			fn()
			fmt.Println()
		}
	}

	run("table1", func() {
		rows := experiments.Table1(*scale, 6)
		fmt.Print(experiments.FormatTable1(rows))
		writeCSV("table1.csv", func(f *os.File) error { return experiments.Table1CSV(f, rows) })
	})
	run("figure2", func() {
		d := mustFind("livej")
		fmt.Print(experiments.FormatSizeDist(experiments.SizeDistribution(d, *scale)))
	})
	run("figure6", func() {
		var series []experiments.SpeedupSeries
		for _, d := range selectDatasets(*data, experiments.Names()) {
			s := experiments.Figure6(mustFind(d), *scale, ths, m, machine, *seed)
			series = append(series, s)
			fmt.Print(experiments.FormatFigure6(s))
		}
		if len(series) > 1 {
			last := ths[len(ths)-1]
			fmt.Printf("geomean Method2 speedup at %d threads (excl. ca-road): %.2fx (paper: 14.05x)\n",
				last, experiments.GeoMeanSpeedup(series, "Method2", last, "ca-road"))
		}
		writeCSV("figure6.csv", func(f *os.File) error { return experiments.SpeedupCSV(f, series) })
	})
	run("figure7", func() {
		for _, d := range selectDatasets(defaultTo(*data, "flickr"), experiments.Names()) {
			rows := experiments.Figure7(mustFind(d), *scale, ths, m, machine, *seed)
			fmt.Print(experiments.FormatFigure7(d, rows))
			writeCSV("figure7-"+d+".csv", func(f *os.File) error { return experiments.BreakdownCSV(f, d, rows) })
		}
	})
	run("figure8", func() {
		rows := experiments.Figure8(*scale, *seed)
		fmt.Print(experiments.FormatFigure8(rows))
		writeCSV("figure8.csv", func(f *os.File) error { return experiments.FractionsCSV(f, rows) })
	})
	run("figure9", func() {
		var dists []experiments.SizeDist
		for _, name := range experiments.Names() {
			sd := experiments.SizeDistribution(mustFind(name), *scale)
			dists = append(dists, sd)
			fmt.Print(experiments.FormatSizeDist(sd))
		}
		writeCSV("figure9.csv", func(f *os.File) error { return experiments.SizeDistCSV(f, dists) })
	})
	run("tasklog", func() {
		d := mustFind(defaultTo(*data, "flickr"))
		fmt.Print(experiments.FormatTaskLog(experiments.TaskLog(d, *scale, *seed, 5)))
	})
	run("smallworld", func() {
		n := int(30000 * *scale)
		if n < 1000 {
			n = 1000
		}
		points := experiments.SmallWorldSweep(n, 3, []float64{0, 0.0005, 0.002, 0.01, 0.05, 0.2, 1.0}, *seed)
		fmt.Print(experiments.FormatSmallWorld(points))
	})
	run("related", func() {
		d := mustFind(defaultTo(*data, "flickr"))
		rc := experiments.Related(d, *scale, *seed)
		fmt.Print(experiments.FormatRelated(rc))
		writeCSV("related.csv", func(f *os.File) error { return experiments.RelatedCSV(f, rc) })
	})
	// bench is deliberately not part of -exp all: it is the CI perf
	// artifact, not a paper figure.
	if *exp == "bench" {
		kern, err := scc.ParseKernels(*kernSpec)
		if err != nil {
			fatal(err)
		}
		cfg := experiments.BenchConfig{
			Scale: *scale, Workers: *workers, Warmup: *warmup, Reps: *reps, Seed: *seed,
			Kernels: kern,
		}
		if *data != "" {
			cfg.Datasets = strings.Split(*data, ",")
		}
		rep, err := experiments.BenchSweep(cfg)
		if err != nil {
			fatal(err)
		}
		// Preserve the section a previous engine run wrote.
		if *jsonPath != "" {
			if old, err := experiments.ReadBenchJSON(*jsonPath); err == nil {
				rep.Engine = old.Engine
			}
		}
		fmt.Print(experiments.FormatBench(rep))
		writeBenchReport(*jsonPath, rep)
	}

	// engine is the amortization perf artifact: a small-graph detection
	// stream measured one-shot vs warm-engine vs batched, merged into
	// the bench report's "engine" section.
	if *exp == "engine" {
		engRep, err := experiments.EngineSweep(experiments.EngineBenchConfig{
			Workers: *engWorkers, Stream: *stream, Warmup: *warmup, Reps: *reps, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatEngine(engRep))
		if *jsonPath != "" {
			rep, err := experiments.ReadBenchJSON(*jsonPath)
			if err != nil {
				// No existing bench report to merge into: write a shell
				// document holding only the engine section.
				rep = experiments.BenchReport{GoVersion: engRep.GoVersion}
			}
			rep.Engine = &engRep
			writeBenchReport(*jsonPath, rep)
		}
	}

	// serve is the robustness perf artifact: the SCC-as-a-service load
	// harness (steady / overload / chaos-rebuild / drain), written to
	// its own BENCH_serve.json and gated by benchgate -serve.
	if *exp == "serve" {
		rep, err := experiments.ServeSweep(experiments.ServeBenchConfig{
			Dataset:  defaultTo(*data, "flickr"),
			Scale:    *scale,
			Workers:  *workers,
			Clients:  *serveClients,
			Duration: *serveDuration,
			Seed:     *seed,
		})
		if err != nil {
			fatal(err)
		}
		// Preserve the sections previous recover/incr runs wrote.
		if *serveJSON != "" {
			if old, err := experiments.ReadServeJSON(*serveJSON); err == nil {
				rep.Recover = old.Recover
				rep.Incr = old.Incr
			}
		}
		fmt.Print(experiments.FormatServe(rep))
		writeServeReport(*serveJSON, rep)
	}

	// recover is the crash-recovery artifact: a durable server killed
	// at every mutating-FS-op ordinal and restarted, merged into the
	// serve report's "recover" section and gated by benchgate -recover.
	if *exp == "recover" {
		recRep, err := experiments.RecoverSweep(experiments.RecoverBenchConfig{
			Dataset: defaultTo(*data, "flickr"),
			Scale:   *scale,
			Workers: *workers,
			Batches: *recoverBatches,
			Seed:    *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatRecover(recRep))
		if *serveJSON != "" {
			rep, err := experiments.ReadServeJSON(*serveJSON)
			if err != nil {
				// No existing serve report to merge into: write a shell
				// document holding only the recover section.
				rep = experiments.ServeReport{GoVersion: recRep.GoVersion}
			}
			rep.Recover = &recRep
			writeServeReport(*serveJSON, rep)
		}
	}

	// incr is the incremental-maintenance artifact: classified update
	// mixes applied through incr.Maintainer and timed against the full
	// rebuild they replace, merged into the serve report's "incr"
	// section and gated by benchgate -incr.
	if *exp == "incr" {
		incRep, err := experiments.IncrSweep(experiments.IncrBenchConfig{
			Dataset:   defaultTo(*data, "flickr"),
			Scale:     *scale,
			Workers:   *workers,
			Batches:   *incrBatches,
			BatchSize: *incrBatchSize,
			Seed:      *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatIncr(incRep))
		if *serveJSON != "" {
			rep, err := experiments.ReadServeJSON(*serveJSON)
			if err != nil {
				// No existing serve report to merge into: write a shell
				// document holding only the incr section.
				rep = experiments.ServeReport{GoVersion: incRep.GoVersion}
			}
			rep.Incr = &incRep
			writeServeReport(*serveJSON, rep)
		}
	}

	run("ablations", func() {
		d := mustFind(defaultTo(*data, "flickr"))
		h := experiments.AblationHybrid(d, *scale, *seed)
		t2 := experiments.AblationTrim2(d, *scale, *seed)
		ks := experiments.AblationK(d, *scale, *seed, []int{1, 2, 4, 8, 16, 32})
		fmt.Print(experiments.FormatAblations(h, t2, ks))
	})
}

// experimentNames lists every -exp value. "all" runs each name before
// "bench"; bench, engine, serve, recover and incr run only when named.
var experimentNames = []string{
	"table1", "figure2", "figure6", "figure7", "figure8", "figure9",
	"tasklog", "smallworld", "related", "ablations",
	"bench", "engine", "serve", "recover", "incr", "all",
}

// checkExperiment rejects an -exp value that names no experiment.
func checkExperiment(name string) error {
	if slices.Contains(experimentNames, name) {
		return nil
	}
	return fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experimentNames, ", "))
}

// parseMode maps a -mode value to its experiments.Mode, rejecting
// anything but the two Mode.String spellings.
func parseMode(s string) (experiments.Mode, error) {
	for _, m := range []experiments.Mode{experiments.Modeled, experiments.Measured} {
		if s == m.String() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (valid: %s, %s)", s, experiments.Modeled, experiments.Measured)
}

// writeServeReport writes the merged serving report to path ("" =
// stdout only).
func writeServeReport(path string, rep experiments.ServeReport) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteServeJSON(f, rep); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeBenchReport writes the merged report to path ("" = stdout only).
func writeBenchReport(path string, rep experiments.BenchReport) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := experiments.WriteBenchJSON(f, rep); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func parseThreads(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func selectDatasets(requested string, all []string) []string {
	if requested == "" {
		return all
	}
	return strings.Split(requested, ",")
}

func defaultTo(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func mustFind(name string) experiments.Dataset {
	d, err := experiments.Find(name)
	if err != nil {
		fatal(err)
	}
	return d
}

func fatal(err error) {
	// Detection errors bubbling out of the experiments are typed;
	// distinguish configuration mistakes from interrupted runs.
	switch {
	case errors.Is(err, scc.ErrInvalidOption):
		var oe *scc.OptionError
		if errors.As(err, &oe) {
			fmt.Fprintf(os.Stderr, "sccbench: bad option %s: %v\n", oe.Field, err)
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "sccbench:", err)
		os.Exit(2)
	case errors.Is(err, scc.ErrCanceled):
		fmt.Fprintln(os.Stderr, "sccbench: run canceled:", err)
		os.Exit(3)
	}
	fmt.Fprintln(os.Stderr, "sccbench:", err)
	os.Exit(1)
}
