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

// Related runs the full algorithm roster on the dataset.
func Related(d Dataset, scale float64, seed int64) RelatedComparison {
	g := d.Build(scale)
	tarjanTime := measure(3, func() { detect(g, scc.Options{Algorithm: scc.Tarjan}) })
	out := RelatedComparison{Dataset: d.Name}
	out.Rows = append(out.Rows, RelatedRow{Algorithm: "Tarjan", Time: tarjanTime, VsTarjan: 1})
	for _, alg := range []scc.Algorithm{scc.Kosaraju, scc.FWBW, scc.OBF, scc.Baseline, scc.Method1, scc.Method2} {
		var peak int64
		t := measure(2, func() {
			res := detect(g, scc.Options{Algorithm: alg, Seed: seed})
			peak = res.Queue.PeakReady
		})
		out.Rows = append(out.Rows, RelatedRow{
			Algorithm: alg.String(),
			Time:      t,
			VsTarjan:  float64(tarjanTime) / float64(t),
			PeakQueue: peak,
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
