package scc

import "sort"

// Renumber converts a representative-based labeling (as produced by
// Detect) into dense component ids 0..k-1, assigned in order of first
// appearance, and returns the labeling and k.
func Renumber(comp []int32) ([]int32, int) {
	out := make([]int32, len(comp))
	ids := make(map[int32]int32, 1024)
	for i, c := range comp {
		id, ok := ids[c]
		if !ok {
			id = int32(len(ids))
			ids[c] = id
		}
		out[i] = id
	}
	return out, len(ids)
}

// ComponentSizes returns the size of every component, in descending
// order — the data behind the paper's Figures 2 and 9.
func ComponentSizes(comp []int32) []int64 {
	counts := make(map[int32]int64, 1024)
	for _, c := range comp {
		counts[c]++
	}
	sizes := make([]int64, 0, len(counts))
	for _, n := range counts {
		sizes = append(sizes, n)
	}
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] > sizes[j] })
	return sizes
}

// SizeHistogram returns hist where hist[s] is the number of components
// of size s (hist[0] is always 0).
func SizeHistogram(comp []int32) []int64 {
	sizes := ComponentSizes(comp)
	if len(sizes) == 0 {
		return []int64{0}
	}
	hist := make([]int64, sizes[0]+1)
	for _, s := range sizes {
		hist[s]++
	}
	return hist
}

// LogSizeHistogram buckets component sizes by powers of two:
// bucket[i] counts components with size in [2^i, 2^(i+1)). This is the
// log-log view used to show the power-law SCC-size distribution.
func LogSizeHistogram(comp []int32) []int64 {
	sizes := ComponentSizes(comp)
	var buckets []int64
	for _, s := range sizes {
		b := 0
		for v := s; v > 1; v >>= 1 {
			b++
		}
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++
	}
	return buckets
}

// Renumber returns the result's labeling converted to dense component
// ids 0..k-1 (assigned in order of first appearance) together with k,
// the number of components. It is the method form of the package-level
// Renumber.
func (r *Result) Renumber() ([]int32, int) { return Renumber(r.Comp) }

// ComponentOf returns node's SCC representative: two nodes are in the
// same SCC iff their ComponentOf values are equal. Representatives are
// node ids, not dense indices; use Renumber for dense ids.
func (r *Result) ComponentOf(node int32) int32 { return r.Comp[node] }

// LargestSCC returns the size of the largest component (the size of
// the largest SCC, Table 1's column).
func (r *Result) LargestSCC() int64 {
	sizes := ComponentSizes(r.Comp)
	if len(sizes) == 0 {
		return 0
	}
	return sizes[0]
}

// SizeHistogram returns the result's component-size histogram.
func (r *Result) SizeHistogram() []int64 { return SizeHistogram(r.Comp) }

// TrivialSCCs returns the number of size-1 components — the population
// the Trim step targets.
func (r *Result) TrivialSCCs() int64 {
	h := r.SizeHistogram()
	if len(h) > 1 {
		return h[1]
	}
	return 0
}
