package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/scc"
)

// HybridAblation quantifies the §4.1 claim that the hybrid set
// representation (explicit per-task node lists next to the Color
// array) is about an order of magnitude faster than working from the
// Color array alone.
type HybridAblation struct {
	Dataset string
	// WithHybrid and WithoutHybrid are total Method 2 times.
	WithHybrid, WithoutHybrid time.Duration
	// RecurWith and RecurWithout isolate the recursive phase, where
	// the representations differ.
	RecurWith, RecurWithout time.Duration
}

// Speedup is the overall hybrid-representation advantage.
func (h HybridAblation) Speedup() float64 {
	return float64(h.WithoutHybrid) / float64(h.WithHybrid)
}

// AblationHybrid measures Method 2 with and without the hybrid
// representation.
func AblationHybrid(d Dataset, scale float64, seed int64) HybridAblation {
	g := d.Build(scale)
	out := HybridAblation{Dataset: d.Name}
	out.WithHybrid = measure(2, func() {
		res := detect(g, scc.Options{Algorithm: scc.Method2, Seed: seed})
		out.RecurWith = res.Phases[scc.PhaseRecurFWBW].Time
	})
	out.WithoutHybrid = measure(2, func() {
		res := detect(g, scc.Options{Algorithm: scc.Method2, Seed: seed, DisableHybrid: true})
		out.RecurWithout = res.Phases[scc.PhaseRecurFWBW].Time
	})
	return out
}

// Trim2Ablation quantifies the §3.4 claim that Trim2 cuts the Par-WCC
// step's time by up to 50% by removing chains of weakly connected
// size-2 SCCs.
type Trim2Ablation struct {
	Dataset string
	// WCCWith/WCCWithout are the median Par-WCC phase times over
	// trim2Pairs runs with and without the preceding Trim2.
	WCCWith, WCCWithout time.Duration
	// Pairs is the number of size-2 SCCs Trim2 claimed.
	Pairs int64
	// WCCTasksWith/WCCTasksWithout are the seeded task counts.
	WCCTasksWith, WCCTasksWithout int
}

// WCCReduction is the fractional Par-WCC time saved by Trim2.
func (t Trim2Ablation) WCCReduction() float64 {
	if t.WCCWithout == 0 {
		return 0
	}
	return 1 - float64(t.WCCWith)/float64(t.WCCWithout)
}

// trim2Pairs is the number of with/without runs AblationTrim2
// interleaves.
const trim2Pairs = 9

// AblationTrim2 measures Method 2 with and without Trim2. It runs the
// two sides in trim2Pairs back-to-back pairs, alternating which side
// goes first so that neither always runs on the other's warm caches
// and heap, and reports each side's median Par-WCC time.
func AblationTrim2(d Dataset, scale float64, seed int64) Trim2Ablation {
	g := d.Build(scale)
	out := Trim2Ablation{Dataset: d.Name}
	var with, without []time.Duration
	run := func(disable bool) {
		res := detect(g, scc.Options{Algorithm: scc.Method2, Seed: seed, DisableTrim2: disable})
		wcc := res.Phases[scc.PhaseParWCC].Time
		if disable {
			without = append(without, wcc)
			out.WCCTasksWithout = res.WCCComponents
			return
		}
		with = append(with, wcc)
		out.WCCTasksWith = res.WCCComponents
		out.Pairs = res.Phases[scc.PhaseParTrimPost].SCCs
	}
	for i := 0; i < trim2Pairs; i++ {
		withFirst := i%2 == 0
		run(!withFirst)
		run(withFirst)
	}
	out.WCCWith, out.WCCWithout = median(with), median(without)
	return out
}

// median returns the middle element of ds, sorting ds in place.
func median(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// KSweepPoint is one batch-size sample of the §4.3 work-queue K sweep.
type KSweepPoint struct {
	K     int
	Total time.Duration
	// PeakReady is the observed maximum queue depth at this K.
	PeakReady int64
}

// AblationK sweeps the two-level work queue's batch size K under
// Method 2 (the paper uses K=1 for Baseline/Method 1 and K=8 for
// Method 2).
func AblationK(d Dataset, scale float64, seed int64, ks []int) []KSweepPoint {
	g := d.Build(scale)
	var out []KSweepPoint
	for _, k := range ks {
		var peak int64
		t := measure(2, func() {
			res := detect(g, scc.Options{Algorithm: scc.Method2, Seed: seed, K: k})
			peak = res.Queue.PeakReady
		})
		out = append(out, KSweepPoint{K: k, Total: t, PeakReady: peak})
	}
	return out
}

// FormatAblations renders the three ablation studies.
func FormatAblations(h HybridAblation, t2 Trim2Ablation, ks []KSweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hybrid representation (§4.1) on %s:\n", h.Dataset)
	fmt.Fprintf(&b, "  with hybrid:    total=%v recur=%v\n", h.WithHybrid.Round(time.Microsecond), h.RecurWith.Round(time.Microsecond))
	fmt.Fprintf(&b, "  color-scan only: total=%v recur=%v  (%.1fx slower)\n",
		h.WithoutHybrid.Round(time.Microsecond), h.RecurWithout.Round(time.Microsecond), h.Speedup())
	fmt.Fprintf(&b, "Trim2 (§3.4) on %s: %d pairs claimed\n", t2.Dataset, t2.Pairs)
	fmt.Fprintf(&b, "  median WCC time of %d runs: with=%v without=%v (%.0f%% reduction); tasks %d vs %d\n",
		trim2Pairs, t2.WCCWith.Round(time.Microsecond), t2.WCCWithout.Round(time.Microsecond),
		100*t2.WCCReduction(), t2.WCCTasksWith, t2.WCCTasksWithout)
	fmt.Fprintf(&b, "Work-queue batch size K (§4.3):\n")
	for _, p := range ks {
		fmt.Fprintf(&b, "  K=%-3d total=%v peak-depth=%d\n", p.K, p.Total.Round(time.Microsecond), p.PeakReady)
	}
	return b.String()
}
