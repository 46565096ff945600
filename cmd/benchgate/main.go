// Command benchgate compares two `go test -bench -benchmem` output
// files and fails when a benchmark's allocs/op regresses beyond a
// threshold against the checked-in baseline. It is the CI gate behind
// BENCH_baseline.txt: benchstat gives the human-readable comparison,
// benchgate gives the red/green verdict.
//
// Usage:
//
//	benchgate [-threshold 0.10] [-metric allocs/op] baseline.txt current.txt
//	benchgate -engine [-min-speedup 2.0] BENCH_scc.json
//	benchgate -serve [-min-qps 50] [-max-p99 2s] BENCH_serve.json
//	benchgate -recover [-max-recovery 30s] BENCH_serve.json
//	benchgate -incr [-incr-speedup 50] BENCH_serve.json
//
// Benchmarks present in only one file are reported but do not fail the
// gate (datasets and benchmarks may be added or removed); a run with
// zero common benchmarks fails, since that means the gate matched
// nothing at all.
//
// The -engine mode gates the engine-amortization section written by
// `sccbench -exp engine`: the engine's stream throughput
// (DetectBatch) must be at least -min-speedup times the per-call
// oneshot throughput, and a warm engine's Detect must not allocate
// more per run than a one-shot Detect.
//
// The -serve mode gates the serving report written by `sccbench -exp
// serve`: zero non-shedding 5xx in every scenario, real load shedding
// under overload, a rolled-back-then-republished epoch in the chaos
// scenario, a clean drain, and steady-state QPS / p99 inside the
// -min-qps / -max-p99 bounds.
//
// The -recover mode gates the crash-recovery matrix written by
// `sccbench -exp recover`: at every crash point the restarted server
// must have lost no acknowledged batch, matched the Tarjan oracle,
// and kept the epoch non-regressing, with recovery inside
// -max-recovery and the torn-record truncation path exercised at
// least once.
//
// The -incr mode gates the incremental-maintenance sweep written by
// `sccbench -exp incr`: zero divergence from from-scratch detection
// in every mix, live classification counters, and fast-path update
// batches at least -incr-speedup times cheaper than the full rebuild
// they replace.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/experiments"
)

// parseBench extracts metric values (e.g. allocs/op) per benchmark
// name from `go test -bench` output. The counter name is matched
// against the unit column following each value.
func parseBench(path, metric string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Layout: Name iterations value unit [value unit]...
		name := trimProcSuffix(fields[0])
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != metric {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad %s value %q for %s", path, metric, fields[i], name)
			}
			out[name] = v
		}
	}
	return out, sc.Err()
}

// trimProcSuffix drops the -N GOMAXPROCS suffix so runs from machines
// with different core counts compare.
func trimProcSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// kernelsTag extracts the value of a "kernels=<name>" sub-benchmark
// segment, or "" when the benchmark carries none.
func kernelsTag(name string) string {
	for _, seg := range strings.Split(name, "/") {
		if v, ok := strings.CutPrefix(seg, "kernels="); ok {
			return v
		}
	}
	return ""
}

// filterKernels restricts the gate to like-vs-like kernel runs:
// benchmarks tagged with a kernels=<name> segment are kept only when
// the tag matches kern, untagged benchmarks always compare. Comparison
// itself is already like-vs-like (names match exactly, tag included);
// the filter exists so a CI lane measuring one kernel set is not
// failed by the other set's rows going missing or stale.
func filterKernels(m map[string]float64, kern string) map[string]float64 {
	if kern == "" {
		return m
	}
	out := make(map[string]float64, len(m))
	for name, v := range m {
		if tag := kernelsTag(name); tag == "" || tag == kern {
			out[name] = v
		}
	}
	return out
}

// gateEngine verifies the engine section of a BENCH json report: the
// stream (batch) throughput multiple over per-call detection, and that
// the warm engine's per-run allocations do not exceed one-shot's.
// Returns an error describing the first failed check.
func gateEngine(path string, minSpeedup float64) error {
	rep, err := experiments.ReadBenchJSON(path)
	if err != nil {
		return err
	}
	if rep.Engine == nil {
		return fmt.Errorf("%s has no engine section (run sccbench -exp engine first)", path)
	}
	eng := rep.Engine
	oneshot, engine, batch := eng.Row("oneshot"), eng.Row("engine"), eng.Row("batch")
	if oneshot == nil || engine == nil || batch == nil {
		return fmt.Errorf("%s: engine section is missing a mode row", path)
	}
	for _, r := range eng.Rows {
		fmt.Printf("%-8s %12.0f runs/sec %8d allocs/run\n", r.Mode, r.RunsPerSec, r.AllocsPerRun)
	}
	fmt.Printf("engine/oneshot %.2fx, batch/oneshot %.2fx (gate: >= %.1fx)\n",
		eng.Speedup, eng.BatchSpeedup, minSpeedup)
	if eng.BatchSpeedup < minSpeedup {
		return fmt.Errorf("engine stream throughput %.2fx oneshot, want >= %.1fx", eng.BatchSpeedup, minSpeedup)
	}
	if engine.AllocsPerRun > oneshot.AllocsPerRun {
		return fmt.Errorf("warm engine allocates %d/run, more than oneshot's %d/run",
			engine.AllocsPerRun, oneshot.AllocsPerRun)
	}
	return nil
}

// gateRecover verifies the crash-recovery matrix written by `sccbench
// -exp recover`: every crash point recovered with no acknowledged
// batch lost, a labeling identical to the Tarjan oracle over the
// durable prefix, and a non-regressing epoch; recovery stayed inside
// the time bound; and at least one crash point actually exercised the
// torn-record truncation path (otherwise the matrix proved nothing
// about corruption handling).
func gateRecover(path string, maxRecovery time.Duration) error {
	rep, err := experiments.ReadServeJSON(path)
	if err != nil {
		return err
	}
	if rep.Recover == nil {
		return fmt.Errorf("%s has no recover section (run sccbench -exp recover first)", path)
	}
	rec := rep.Recover
	if len(rec.Points) == 0 {
		return fmt.Errorf("%s: recover section has no crash points", path)
	}
	if len(rec.Points) != rec.CrashPoints {
		return fmt.Errorf("%s: %d points recorded for %d crash ordinals", path, len(rec.Points), rec.CrashPoints)
	}
	for _, p := range rec.Points {
		if !p.DurabilityOK {
			return fmt.Errorf("crash point %d: %d batches acked, only %d recovered — acknowledged data lost",
				p.CrashOp, p.AckedBatches, p.RecoveredSeq)
		}
		if !p.LabelsMatch {
			return fmt.Errorf("crash point %d: recovered labels disagree with the Tarjan oracle", p.CrashOp)
		}
		if p.EpochRecovered < p.EpochPreCrash {
			return fmt.Errorf("crash point %d: epoch moved backwards %d→%d",
				p.CrashOp, p.EpochPreCrash, p.EpochRecovered)
		}
	}
	fmt.Printf("recover: %d crash points, max recovery %dms (gate <= %v), truncation exercised: %v\n",
		rec.CrashPoints, rec.MaxRecoveryMS, maxRecovery, rec.AnyTruncated)
	if got := time.Duration(rec.MaxRecoveryMS) * time.Millisecond; got > maxRecovery {
		return fmt.Errorf("max recovery %v above gate %v", got, maxRecovery)
	}
	if !rec.AnyTruncated {
		return fmt.Errorf("no crash point produced a truncated WAL: torn-record handling never exercised")
	}
	return nil
}

// gateIncr verifies the incremental-maintenance sweep written by
// `sccbench -exp incr`: no mix's labeling diverged from a
// from-scratch detection (zero tolerance), each mix actually fired
// the update classes it is named for (the classifier is live, not
// routing everything to one path), and the pure fast-path mixes
// (intra-SCC inserts and inter-SCC deletes) beat the full rebuild
// they replaced by at least -incr-speedup.
func gateIncr(path string, minSpeedup float64) error {
	rep, err := experiments.ReadServeJSON(path)
	if err != nil {
		return err
	}
	if rep.Incr == nil {
		return fmt.Errorf("%s has no incr section (run sccbench -exp incr first)", path)
	}
	inc := rep.Incr
	intra := inc.Mix("intra")
	cycle := inc.Mix("cycle")
	del := inc.Mix("delete")
	if intra == nil || cycle == nil || del == nil {
		return fmt.Errorf("%s: incr section is missing a mix row", path)
	}
	for _, m := range inc.Mixes {
		if m.Diverged {
			return fmt.Errorf("mix %s: incremental labeling diverged from full detection", m.Name)
		}
		if m.Updates == 0 || m.MeanBatchUS <= 0 {
			return fmt.Errorf("mix %s: applied no updates", m.Name)
		}
	}
	if intra.IntraInserts == 0 {
		return fmt.Errorf("intra mix fired no intra-SCC insert fast paths")
	}
	if cycle.CycleMerges == 0 {
		return fmt.Errorf("cycle mix fired no cycle-merge collapses")
	}
	if del.NoopDeletes+del.DagDeletes+del.Noops == 0 {
		return fmt.Errorf("delete mix fired no delete fast paths")
	}
	fmt.Printf("incr: full rebuild %dµs; intra %.0fx, cycle %.0fx, delete %.0fx (gate >= %.0fx on intra/delete), divergence 0\n",
		inc.FullDetectUS, intra.Speedup, cycle.Speedup, del.Speedup, minSpeedup)
	if intra.Speedup < minSpeedup {
		return fmt.Errorf("intra mix speedup %.1fx below gate %.0fx", intra.Speedup, minSpeedup)
	}
	if del.Speedup < minSpeedup {
		return fmt.Errorf("delete mix speedup %.1fx below gate %.0fx", del.Speedup, minSpeedup)
	}
	return nil
}

// gateServe verifies the serving report: every scenario kept the
// query path free of non-shedding 5xx; the overload scenario actually
// shed (the admission control is live, not vestigial); the chaos
// scenario survived at least one rebuild failure AND still advanced
// the epoch (rollback then retry, not silent loss); the drain
// completed every accepted request; and steady-state throughput and
// tail latency are inside the bounds.
func gateServe(path string, minQPS float64, maxP99 time.Duration) error {
	rep, err := experiments.ReadServeJSON(path)
	if err != nil {
		return err
	}
	if len(rep.Scenarios) == 0 {
		return fmt.Errorf("%s has no scenarios (run sccbench -exp serve first)", path)
	}
	for _, s := range rep.Scenarios {
		if s.Err5xx != 0 {
			return fmt.Errorf("scenario %s: %d query 5xx, want 0", s.Name, s.Err5xx)
		}
	}
	steady := rep.Scenario("steady")
	overload := rep.Scenario("overload")
	chaosRow := rep.Scenario("chaos-rebuild")
	drain := rep.Scenario("drain")
	if steady == nil || overload == nil || chaosRow == nil || drain == nil {
		return fmt.Errorf("%s: missing a scenario row", path)
	}
	fmt.Printf("steady %.0f qps p99 %v; overload shed %d; chaos fails %d epoch %d→%d; drain ok %v\n",
		steady.QPS, time.Duration(steady.P99US)*time.Microsecond,
		overload.Shed429, chaosRow.RebuildFailures, chaosRow.EpochStart, chaosRow.EpochEnd,
		drain.DrainOK != nil && *drain.DrainOK)
	if steady.QPS < minQPS {
		return fmt.Errorf("steady QPS %.0f below gate %.0f", steady.QPS, minQPS)
	}
	if p99 := time.Duration(steady.P99US) * time.Microsecond; p99 > maxP99 {
		return fmt.Errorf("steady p99 %v above gate %v", p99, maxP99)
	}
	if overload.Shed429 == 0 {
		return fmt.Errorf("overload scenario shed nothing: admission control is not engaging")
	}
	if chaosRow.RebuildFailures < 1 {
		return fmt.Errorf("chaos scenario saw no rebuild failure: injection did not fire")
	}
	if chaosRow.EpochEnd <= chaosRow.EpochStart {
		return fmt.Errorf("chaos scenario epoch stuck at %d: rollback never recovered", chaosRow.EpochEnd)
	}
	if drain.DrainOK == nil || !*drain.DrainOK {
		return fmt.Errorf("drain scenario did not complete every accepted request")
	}
	return nil
}

// jsonGate is one BENCH json gate mode: the flag selecting it, the
// usage line printed when the report path is missing, the gate itself
// and the line printed when it holds.
type jsonGate struct {
	on    *bool
	usage string
	check func(path string) error
	ok    string
}

func main() {
	threshold := flag.Float64("threshold", 0.10, "max allowed relative regression (0.10 = +10%)")
	metric := flag.String("metric", "allocs/op", "benchmark counter to gate on")
	kernels := flag.String("kernels", "", "gate only benchmarks whose kernels=<name> tag matches (untagged benchmarks always compare); empty gates everything")
	minSpeedup := flag.Float64("min-speedup", 2.0, "engine mode: minimum stream-vs-oneshot throughput multiple")
	minQPS := flag.Float64("min-qps", 50, "serve mode: minimum steady-state QPS")
	maxP99 := flag.Duration("max-p99", 2*time.Second, "serve mode: maximum steady-state p99 latency")
	maxRecovery := flag.Duration("max-recovery", 30*time.Second, "recover mode: maximum single-crash-point recovery time")
	incrSpeedup := flag.Float64("incr-speedup", 50, "incr mode: minimum fast-path-vs-full-rebuild speedup")
	// When several modes are set, the first in this order runs.
	gates := []jsonGate{
		{flag.Bool("incr", false, "gate the incr section of a BENCH_serve.json report from sccbench -exp incr"),
			"usage: benchgate -incr [-incr-speedup 50] BENCH_serve.json",
			func(path string) error { return gateIncr(path, *incrSpeedup) },
			"benchgate: incremental-maintenance gates hold"},
		{flag.Bool("recover", false, "gate the recover section of a BENCH_serve.json report from sccbench -exp recover"),
			"usage: benchgate -recover [-max-recovery 30s] BENCH_serve.json",
			func(path string) error { return gateRecover(path, *maxRecovery) },
			"benchgate: crash-recovery gates hold"},
		{flag.Bool("serve", false, "gate a BENCH_serve.json report from sccbench -exp serve"),
			"usage: benchgate -serve [-min-qps 50] [-max-p99 2s] BENCH_serve.json",
			func(path string) error { return gateServe(path, *minQPS, *maxP99) },
			"benchgate: serving robustness gates hold"},
		{flag.Bool("engine", false, "gate the engine section of a BENCH json report instead of comparing bench output files"),
			"usage: benchgate -engine [-min-speedup 2.0] BENCH_scc.json",
			func(path string) error { return gateEngine(path, *minSpeedup) },
			"benchgate: engine amortization within bounds"},
	}
	flag.Parse()
	for _, g := range gates {
		if !*g.on {
			continue
		}
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, g.usage)
			os.Exit(2)
		}
		if err := g.check(flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(1)
		}
		fmt.Println(g.ok)
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchgate [-threshold 0.10] [-metric allocs/op] [-kernels worklist] baseline.txt current.txt")
		os.Exit(2)
	}
	base, err := parseBench(flag.Arg(0), *metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cur, err := parseBench(flag.Arg(1), *metric)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	base = filterKernels(base, *kernels)
	cur = filterKernels(cur, *kernels)

	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	compared := 0
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("SKIP %-50s only in baseline\n", name)
			continue
		}
		compared++
		var rel float64
		switch {
		case b == 0 && c == 0:
			rel = 0
		case b == 0:
			rel = 1.0 // from zero to anything is a full regression
		default:
			rel = (c - b) / b
		}
		status := "ok  "
		if rel > *threshold {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s %-50s %14.1f -> %14.1f  (%+.1f%%)\n", status, name, b, c, rel*100)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("NEW  %-50s %14.1f\n", name, cur[name])
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no common benchmarks between the two files")
		os.Exit(1)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: %s regressed more than %.0f%% against baseline\n", *metric, *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline on %s\n", compared, *threshold*100, *metric)
}
