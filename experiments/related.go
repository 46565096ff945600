package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/scc"
)

// RelatedRow is one algorithm's showing in the related-work comparison
// (§1/§2 of the paper: Fleischer's FW-BW, Barnat's OBF, McLendon's
// FW-BW-Trim, and the paper's two methods, all against Tarjan).
type RelatedRow struct {
	Algorithm string
	Time      time.Duration
	// VsTarjan is the speedup relative to Tarjan (< 1 means slower).
	VsTarjan float64
	// PeakQueue is the work-queue depth, the task-parallelism measure.
	PeakQueue int64
}

// RelatedComparison measures every implemented algorithm on one
// dataset at the host's worker count.
type RelatedComparison struct {
	Dataset string
	Rows    []RelatedRow
}

// relatedRuns is how many times Related times each algorithm.
const relatedRuns = 9

// Related runs the full algorithm roster on the dataset. It times every
// algorithm relatedRuns times, round-robin over the roster so that drift
// on the host hits every row alike, with each round starting one
// algorithm further along so that none always runs on the same
// predecessor's heap, and reports each row's median.
func Related(d Dataset, scale float64, seed int64) RelatedComparison {
	g := d.Build(scale)
	algs := []scc.Algorithm{scc.Tarjan, scc.Kosaraju, scc.FWBW, scc.OBF, scc.Baseline, scc.Method1, scc.Method2}
	times := make([][]time.Duration, len(algs))
	peaks := make([]int64, len(algs))
	for run := 0; run < relatedRuns; run++ {
		for k := range algs {
			i := (run + k) % len(algs)
			t0 := time.Now()
			res := detect(g, scc.Options{Algorithm: algs[i], Seed: seed})
			times[i] = append(times[i], time.Since(t0))
			peaks[i] = res.Queue.PeakReady
		}
	}
	out := RelatedComparison{Dataset: d.Name}
	tarjan := median(times[0])
	for i, alg := range algs {
		t := median(times[i])
		out.Rows = append(out.Rows, RelatedRow{
			Algorithm: alg.String(),
			Time:      t,
			VsTarjan:  float64(tarjan) / float64(t),
			PeakQueue: peaks[i],
		})
	}
	return out
}

// FormatRelated renders the comparison table.
func FormatRelated(rc RelatedComparison) string {
	var b strings.Builder
	fmt.Fprintf(&b, "algorithm roster on %s (host worker count)\n", rc.Dataset)
	fmt.Fprintf(&b, "%-10s %12s %9s %10s\n", "algorithm", "time", "vs-Tarjan", "peak-queue")
	for _, r := range rc.Rows {
		fmt.Fprintf(&b, "%-10s %12v %8.2fx %10d\n",
			r.Algorithm, r.Time.Round(time.Microsecond), r.VsTarjan, r.PeakQueue)
	}
	return b.String()
}
