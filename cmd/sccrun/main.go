// Command sccrun runs one SCC algorithm on a graph file and reports
// timing, the phase breakdown, and queue statistics.
//
// Usage:
//
//	sccrun -alg method2 -workers 8 graph.sccg
//	sccrun -alg method2 -kernels legacy graph.sccg
//	sccrun -alg tarjan graph.sccg
//	sccrun -alg method1 -tasklog 5 -text edges.txt
//	sccrun -alg method2 -timeout 30s -progress graph.sccg
//	sccrun -alg method2 -repeat 100 graph.sccg      # warm-engine stream
//
// -repeat N runs detection N times on one persistent scc.Engine (the
// amortized request-stream mode) and reports the mean per-run time
// alongside the final run's breakdown.
//
// Robustness controls: -mem-limit degrades the run to fit a memory
// budget, -stall-timeout arms the no-progress watchdog, and the
// -chaos-* flags inject deterministic failures. Failures exit with
// distinct codes: canceled or invalid usage 2, stalled 3, worker
// panic 4 (stack on stderr), budget too small 5.
//
//	sccrun -alg method2 -mem-limit 64M -stall-timeout 10s graph.sccg
//	sccrun -alg method2 -chaos-panic bfs:2 graph.sccg
//	sccrun -alg method2 -chaos-stall wcc -chaos-stall-for 100ms -stall-timeout 5s graph.sccg
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/cliflag"
	"repro/scc"
	"repro/schedsim"
)

func main() {
	// Detection hits only the engine's chaos sites; the serving-path
	// sites are rejected rather than silently never firing.
	chaosSites := chaos.EngineSites()
	siteNames := make([]string, len(chaosSites))
	for i, s := range chaosSites {
		siteNames[i] = s.String()
	}
	var (
		algName  = flag.String("alg", "method2", "algorithm: tarjan|kosaraju|baseline|method1|method2|fwbw|obf")
		kernSpec = flag.String("kernels", "worklist", "trim/WCC kernel set: worklist|legacy")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		k        = flag.Int("k", 0, "work-queue batch size (0 = paper default)")
		seed     = flag.Int64("seed", 1, "pivot seed")
		text     = flag.Bool("text", false, "input is a text edge list")
		validate = flag.Bool("validate", false, "verify the decomposition before reporting")
		tasklog  = flag.Int("tasklog", 0, "print the first N recursive-phase task records")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file")
		chrome   = flag.String("chrometrace", "", "record the recursive phase's task schedule (simulated on the paper machine at 32 threads) as Chrome trace JSON")
		timeout  = flag.Duration("timeout", 0, "abort detection after this duration (0 = no limit)")
		progress = flag.Bool("progress", false, "stream phase and round progress to stderr")
		repeat   = flag.Int("repeat", 1, "run detection this many times on one warm engine and report per-run mean")

		memLimit     = flag.String("mem-limit", "", "degrade the parallel engine to fit this memory budget (bytes; K/M/G suffixes)")
		stallTimeout = flag.Duration("stall-timeout", 0, "abort the run if no kernel progress for this long (0 = no watchdog)")
		chaosPanic   = flag.String("chaos-panic", "", "inject a panic at site[:hit][,...] (sites: "+strings.Join(siteNames, "|")+")")
		chaosStall   = flag.String("chaos-stall", "", "inject a stall at site[:hit][,...]")
		chaosFor     = flag.Duration("chaos-stall-for", 0, "bound injected stalls (0 = stall until teardown)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sccrun [flags] <graph file>")
		os.Exit(2)
	}

	alg, err := scc.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	kern, err := scc.ParseKernels(*kernSpec)
	if err != nil {
		fatal(err)
	}
	g, err := load(flag.Arg(0), *text)
	if err != nil {
		fatal(err)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var obs scc.Observer
	if *progress {
		obs = progressObserver{}
	}
	limit, err := cliflag.ParseScaled(*memLimit, "-mem-limit")
	if err != nil {
		fatal(err)
	}
	chaosCfg, err := cliflag.ParseChaos(*chaosPanic, *chaosStall, *chaosFor, chaosSites)
	if err != nil {
		fatal(err)
	}
	opts := scc.Options{
		Algorithm:     alg,
		Kernels:       kern,
		Workers:       *workers,
		K:             *k,
		Seed:          *seed,
		Validate:      *validate,
		TraceTasks:    *tasklog,
		TraceSchedule: *chrome != "",
		Observer:      obs,
		MemoryLimit:   limit,
		StallTimeout:  *stallTimeout,
		Chaos:         chaosCfg,
	}
	var res *scc.Result
	var err2 error
	if *repeat > 1 {
		// Warm-engine stream: construct once, detect repeatedly. The
		// reported breakdown is the final (steady-state) run's.
		eng, err := scc.New(opts)
		if err != nil {
			os.Exit(reportFailure(err, *timeout))
		}
		defer eng.Close()
		t0 := time.Now()
		for i := 0; i < *repeat; i++ {
			if res, err2 = eng.Detect(ctx, g); err2 != nil {
				os.Exit(reportFailure(err2, *timeout))
			}
		}
		total := time.Since(t0)
		fmt.Printf("repeat:      %d runs on one engine, total %v, mean %v/run\n",
			*repeat, total.Round(time.Microsecond),
			(total / time.Duration(*repeat)).Round(time.Microsecond))
	} else {
		res, err2 = scc.DetectContext(ctx, g, opts)
		if err2 != nil {
			os.Exit(reportFailure(err2, *timeout))
		}
	}

	fmt.Printf("algorithm:   %v\n", res.Algorithm)
	fmt.Printf("graph:       %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("time:        %v\n", res.Total.Round(time.Microsecond))
	fmt.Printf("SCCs:        %d (largest %d, size-1 %d)\n",
		res.NumSCCs, res.LargestSCC(), res.TrivialSCCs())
	if res.Metrics.DegradedMode != "" {
		fmt.Printf("degraded:    %s (fit -mem-limit %s)\n", res.Metrics.DegradedMode, *memLimit)
	}
	if alg == scc.Baseline || alg == scc.Method1 || alg == scc.Method2 {
		fmt.Println("phase breakdown:")
		for p := scc.Phase(0); p < scc.NumPhases; p++ {
			st := res.Phases[p]
			if st.Time == 0 && st.Nodes == 0 {
				continue
			}
			fmt.Printf("  %-11s %12v  nodes=%d sccs=%d rounds=%d\n",
				p, st.Time.Round(time.Microsecond), st.Nodes, st.SCCs, st.Rounds)
		}
		fmt.Printf("phase 1:     trials=%d levels=%d giant=%d\n",
			res.Phase1Trials, res.Phase1Levels, res.GiantSCC)
		if alg == scc.Method2 {
			fmt.Printf("WCC:         %d components in %d rounds\n", res.WCCComponents, res.WCCRounds)
		}
		fmt.Printf("work queue:  %d initial tasks, peak depth %d, %d total\n",
			res.InitialTasks, res.Queue.PeakReady, res.Queue.Total)
	}
	if *chrome != "" {
		tasks := make([]schedsim.Task, len(res.TaskTrace))
		for i, tr := range res.TaskTrace {
			tasks[i] = schedsim.Task{Parent: tr.Parent, Duration: tr.Duration}
		}
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := schedsim.WriteChromeTrace(f, tasks, schedsim.PaperMachine(), 32); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("chrome trace: %s (%d tasks; open at chrome://tracing)\n", *chrome, len(tasks))
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
	if len(res.TaskLog) > 0 {
		fmt.Printf("%8s %8s %8s %8s\n", "SCC", "FW", "BW", "Remain")
		for _, r := range res.TaskLog {
			fmt.Printf("%8d %8d %8d %8d\n", r.SCC, r.FW, r.BW, r.Remain)
		}
	}
}

func load(path string, text bool) (*graph.Graph, error) {
	if text {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	}
	return graph.LoadFile(path)
}

// progressObserver streams phase and round progress to stderr.
// Per-task events are skipped — at millions of tasks they would
// dominate the run.
type progressObserver struct{}

func (progressObserver) Observe(ev scc.Event) {
	phase := scc.Phase(ev.Phase)
	switch ev.Type {
	case scc.EventPhaseStart:
		fmt.Fprintf(os.Stderr, "[%s] start\n", phase)
	case scc.EventPhaseEnd:
		fmt.Fprintf(os.Stderr, "[%s] done: rounds=%d nodes=%d sccs=%d\n",
			phase, ev.Round, ev.Nodes, ev.SCCs)
	case scc.EventTrimRound:
		fmt.Fprintf(os.Stderr, "[%s] trim round %d: removed %d\n", phase, ev.Round, ev.Nodes)
	case scc.EventBFSLevel:
		fmt.Fprintf(os.Stderr, "[%s] BFS level %d: frontier %d\n", phase, ev.Round, ev.Frontier)
	case scc.EventWCCRound:
		fmt.Fprintf(os.Stderr, "[%s] WCC round %d\n", phase, ev.Round)
	case scc.EventQueueSample:
		fmt.Fprintf(os.Stderr, "[%s] queue: %d pending, %d executed\n", phase, ev.Queued, ev.Executed)
	}
}

// Exit codes for detection failures. Flag and option errors share the
// usage exit code (2), like the canceled case — the caller asked for
// something that could not be attempted or completed as stated; the
// engine's own failure modes get distinct codes so scripts can react
// (retry a stall, file a panic, raise a budget).
const (
	exitFailure  = 1
	exitCanceled = 2
	exitStalled  = 3
	exitPanic    = 4
	exitBudget   = 5
)

// exitCode maps a detection error to its exit code.
func exitCode(err error) int {
	var pe *scc.PanicError
	switch {
	case errors.As(err, &pe):
		return exitPanic
	case errors.Is(err, scc.ErrStalled):
		return exitStalled
	case errors.Is(err, scc.ErrMemoryBudget):
		return exitBudget
	case errors.Is(err, scc.ErrCanceled), errors.Is(err, scc.ErrInvalidOption):
		return exitCanceled
	}
	return exitFailure
}

// reportFailure prints a detection failure to stderr — including the
// worker's stack for a captured panic — and returns its exit code.
func reportFailure(err error, timeout time.Duration) int {
	code := exitCode(err)
	switch {
	case code == exitPanic:
		fmt.Fprintln(os.Stderr, "sccrun:", err)
		var pe *scc.PanicError
		if errors.As(err, &pe) && len(pe.Stack) > 0 {
			os.Stderr.Write(pe.Stack)
		}
	case code == exitCanceled && timeout > 0 && !errors.Is(err, scc.ErrInvalidOption):
		fmt.Fprintf(os.Stderr, "sccrun: run did not finish within %v: %v\n", timeout, err)
	default:
		fmt.Fprintln(os.Stderr, "sccrun:", err)
	}
	return code
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sccrun:", err)
	os.Exit(1)
}
