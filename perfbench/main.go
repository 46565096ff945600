// Command perfbench is the repository benchmark. One invocation runs one
// workload in its own process and prints, as the last line of standard
// output, a JSON object with the keys correct, attempted, failed and
// metrics:
//
//	perfbench --workload detect-flickr --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 the process measures one untraced and one
// traced window, each half of --seconds, on fresh set-ups with the same
// seed and reports the per-layer metrics from the traced window plus the
// tracing overhead.
// Inputs are generated from --seed; every output the program produces is
// checked, and a wrong answer fails the command with exit code 1.
//
// Build and run it through run.sh, which keeps every file the build and
// the run write under .bench_build/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// params are one run's settings, shared by every workload.
type params struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string
	// tiny shrinks inputs, rates and repetition counts for self-tests.
	tiny bool
}

// duration is the measured window.
func (p params) duration() time.Duration {
	return time.Duration(p.seconds * float64(time.Second))
}

// workload is one named input set and traffic shape; why matches
// BENCHMARK.json.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, p params) (*report, error)
}

func workloads() []workload {
	return []workload{
		{
			name: "detect-flickr",
			why:  "closed loop of warm Engine.Detect on the flickr analog at scale 1.0: small-world, heavy mid-size SCC tail; Recur-FWBW, Trim2 and union-find WCC work, few BFS barriers",
			run:  func(ctx context.Context, p params) (*report, error) { return runDetect(ctx, p, flickrDetect) },
		},
		{
			name: "detect-road",
			why:  "the same loop on the ca-road analog at scale 1.0, the paper's high-diameter counterexample: ~30x the BFS levels of flickr, so barriers and trim cascades dominate",
			run:  func(ctx context.Context, p params) (*report, error) { return runDetect(ctx, p, roadDetect) },
		},
		{
			name: "serve-mixed",
			why:  "open-loop reads beside /update?wait=1 batches on a durable incremental server (flickr 0.25), the only path through server, incr and durable; gates the reachable query latency",
			run:  func(ctx context.Context, p params) (*report, error) { return runServe(ctx, p) },
		},
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 for the traced per-layer run")
		workdir = flag.String("workdir", ".bench_build", "directory for temporary files and traces")
		commit  = flag.String("commit", "unknown", "source commit, for the stamp")
		list    = flag.Bool("list", false, "print the workload names and exit")
	)
	flag.Parse()
	if *list {
		for _, w := range workloads() {
			fmt.Println(w.name)
		}
		return
	}
	var wl *workload
	for _, w := range workloads() {
		if w.name == *name {
			wl = &w
			break
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}
	if p.trace {
		// The untraced and the traced window share the run's time.
		p.seconds /= 2
	}
	if err := os.MkdirAll(p.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rep, err := wl.run(context.Background(), p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	rep.stamp.set("workload", wl.name)
	rep.stamp.set("why", wl.why)
	rep.stamp.set("seed", p.seed)
	rep.stamp.set("window_seconds", p.seconds)
	rep.stamp.set("traced", p.trace)
	stampHost(&rep.stamp)
	rep.stamp.set("commit", *commit)
	printReport(os.Stdout, rep, p.trace)
	if rep.invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid: %s\n", wl.name, rep.invalid)
		os.Exit(3)
	}
	if !rep.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", wl.name, rep.failed, rep.attempted)
		os.Exit(1)
	}
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int64
	// failures describes the first few failed checks.
	failures []string
	// invalid is set when the load generator itself fell behind: the
	// numbers describe the generator, not the program.
	invalid string
	// named holds the end-to-end metrics under the names that say what
	// each workload timed (detect_ms.p50, update_ms.p99, ...), for the
	// text report; e2e holds the catalog values the JSON line carries.
	named []namedValue
	// e2e and layer hold the metric values by catalog name.
	e2e   map[string]float64
	layer map[string]float64
	stamp stamp
}

func (r *report) correct() bool { return r.failed == 0 && r.attempted > 0 }

// fail counts one failed operation and remembers why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one attempted check and fails it unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

type namedValue struct {
	name  string
	value float64
	unit  string
}

// show adds one named end-to-end metric to the text report.
func (r *report) show(name string, value float64, unit string) {
	r.named = append(r.named, namedValue{name, value, unit})
}

// stamp is the ordered key/value header printed before the metrics.
type stamp struct{ keys, vals []string }

func (s *stamp) set(k string, v any) {
	s.keys = append(s.keys, k)
	s.vals = append(s.vals, fmt.Sprint(v))
}

// printReport prints the stamp, every metric by name with its unit, and
// the JSON result line last.
func printReport(w io.Writer, r *report, traced bool) {
	for i, k := range r.stamp.keys {
		fmt.Fprintf(w, "# %s: %s\n", k, r.stamp.vals[i])
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintln(w, "# end-to-end (untraced window)")
	for _, m := range r.named {
		fmt.Fprintf(w, "%-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "%-32s %14.6g ratio (failed %d / attempted %d)\n", "error_rate", rate, r.failed, r.attempted)
	if traced {
		fmt.Fprintln(w, "# per-layer (traced window); the last column is what a change to the layer should move")
		for _, d := range layerCatalog {
			fmt.Fprintf(w, "%-32s %14.6g %-6s %s\n", d.name, r.layer[d.name], d.unit, d.moves)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{Correct: r.correct() && r.invalid == "", Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jm{}}
	cat, vals := e2eCatalog, r.e2e
	if traced {
		cat, vals = layerCatalog, r.layer
	}
	for _, d := range cat {
		out.Metrics[d.name] = jm{Value: vals[d.name], Unit: d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can fail to marshal: a benchmark bug.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// stampHost records the host and build the numbers were measured on.
func stampHost(s *stamp) {
	h := hostInfo()
	s.set("nproc", h.nproc)
	s.set("gomaxprocs", h.gomaxprocs)
	s.set("cpu", h.cpu)
	s.set("go", h.goVersion)
}
