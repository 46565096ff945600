package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/scc"
)

// CSV writers: one per experiment artifact, so the figures can be
// re-plotted with any tool. Every writer emits a header row and flushes
// before returning.

// Table1CSV writes the Table 1 rows.
func Table1CSV(w io.Writer, rows []Table1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "star", "nodes", "edges", "largest_scc", "num_sccs",
		"diameter", "paper_nodes", "paper_edges", "paper_largest_scc", "paper_diameter"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Name, strconv.FormatBool(r.Star),
			strconv.Itoa(r.Nodes), strconv.FormatInt(r.Edges, 10),
			strconv.FormatInt(r.LargestSCC, 10), strconv.FormatInt(r.NumSCCs, 10),
			strconv.Itoa(r.Diameter),
			strconv.FormatInt(r.Paper.Nodes, 10), strconv.FormatInt(r.Paper.Edges, 10),
			strconv.FormatInt(r.Paper.LargestSCC, 10), strconv.Itoa(r.Paper.Diameter),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SpeedupCSV writes Figure 6 series (one row per dataset × algorithm ×
// thread count).
func SpeedupCSV(w io.Writer, series []SpeedupSeries) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "mode", "algorithm", "threads", "speedup", "time_ns", "tarjan_ns"}); err != nil {
		return err
	}
	for _, s := range series {
		names := make([]string, 0, len(s.Series))
		for name := range s.Series {
			names = append(names, name)
		}
		sortStringsStable(names)
		for _, name := range names {
			for _, p := range s.Series[name] {
				rec := []string{
					s.Dataset, s.Mode.String(), name,
					strconv.Itoa(p.Threads),
					strconv.FormatFloat(p.Speedup, 'f', 4, 64),
					strconv.FormatInt(int64(p.Time), 10),
					strconv.FormatInt(int64(s.TarjanTime), 10),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// BreakdownCSV writes Figure 7 rows.
func BreakdownCSV(w io.Writer, dataset string, rows []BreakdownRow) error {
	cw := csv.NewWriter(w)
	header := []string{"dataset", "algorithm", "threads"}
	for ph := scc.Phase(0); ph < scc.NumPhases; ph++ {
		header = append(header, fmt.Sprintf("%s_ns", ph))
	}
	header = append(header, "total_ns")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{dataset, r.Algorithm, strconv.Itoa(r.Threads)}
		for _, t := range r.Phases {
			rec = append(rec, strconv.FormatInt(int64(t), 10))
		}
		rec = append(rec, strconv.FormatInt(int64(r.Total), 10))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FractionsCSV writes Figure 8 rows.
func FractionsCSV(w io.Writer, rows []FractionRow) error {
	cw := csv.NewWriter(w)
	header := []string{"dataset"}
	for ph := scc.Phase(0); ph < scc.NumPhases; ph++ {
		header = append(header, ph.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{r.Dataset}
		for _, f := range r.Fractions {
			rec = append(rec, strconv.FormatFloat(f, 'f', 6, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SizeDistCSV writes Figure 2/9 bucket rows for any number of datasets.
func SizeDistCSV(w io.Writer, dists []SizeDist) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "bucket_log2", "count"}); err != nil {
		return err
	}
	for _, d := range dists {
		for i, c := range d.Buckets {
			if c == 0 {
				continue
			}
			if err := cw.Write([]string{d.Dataset, strconv.Itoa(i), strconv.FormatInt(c, 10)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// RelatedCSV writes the related-work roster rows.
func RelatedCSV(w io.Writer, rc RelatedComparison) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dataset", "algorithm", "time_ns", "vs_tarjan", "peak_queue"}); err != nil {
		return err
	}
	for _, r := range rc.Rows {
		rec := []string{
			rc.Dataset, r.Algorithm,
			strconv.FormatInt(int64(r.Time), 10),
			strconv.FormatFloat(r.VsTarjan, 'f', 4, 64),
			strconv.FormatInt(r.PeakQueue, 10),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
