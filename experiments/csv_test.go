package experiments

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
	"time"

	"repro/schedsim"
)

// parseCSV parses a writer's output and sanity-checks the rectangle.
func parseCSV(t *testing.T, buf *bytes.Buffer, wantCols int) [][]string {
	t.Helper()
	records, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 2 {
		t.Fatalf("only %d CSV rows", len(records))
	}
	for i, rec := range records {
		if len(rec) != wantCols {
			t.Fatalf("row %d has %d columns, want %d", i, len(rec), wantCols)
		}
	}
	return records
}

func TestTable1CSV(t *testing.T) {
	rows := []Table1Row{{
		Name: "livej", Nodes: 100, Edges: 500, LargestSCC: 70, NumSCCs: 20, Diameter: 9,
		Paper: PaperNumbers{Nodes: 1000, Edges: 5000, LargestSCC: 700, Diameter: 18},
	}}
	var buf bytes.Buffer
	if err := Table1CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf, 11)
	if recs[1][0] != "livej" || recs[1][2] != "100" {
		t.Fatalf("row: %v", recs[1])
	}
}

func TestSpeedupCSV(t *testing.T) {
	series := []SpeedupSeries{{
		Dataset: "x", Mode: Modeled, TarjanTime: time.Millisecond,
		Series: map[string][]SpeedupPoint{
			"Method2": {{Threads: 1, Speedup: 0.5, Time: 2 * time.Millisecond},
				{Threads: 32, Speedup: 5.0, Time: 200 * time.Microsecond}},
		},
	}}
	var buf bytes.Buffer
	if err := SpeedupCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf, 7)
	if len(recs) != 3 {
		t.Fatalf("%d rows", len(recs))
	}
	sp, _ := strconv.ParseFloat(recs[2][4], 64)
	if sp != 5.0 {
		t.Fatalf("speedup %v", recs[2])
	}
}

func TestBreakdownAndFractionsCSV(t *testing.T) {
	d, _ := Find("baidu")
	rows := Figure7(d, testScale, []int{1}, Modeled, schedsim.PaperMachine(), 1)
	var buf bytes.Buffer
	if err := BreakdownCSV(&buf, "baidu", rows); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 9)

	fr := Figure8(testScale, 1)
	buf.Reset()
	if err := FractionsCSV(&buf, fr); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf, 6)
	if len(recs) != 10 { // header + 9 datasets
		t.Fatalf("%d rows", len(recs))
	}
}

func TestSizeDistCSV(t *testing.T) {
	dists := []SizeDist{{Dataset: "a", Buckets: []int64{5, 0, 2}}}
	var buf bytes.Buffer
	if err := SizeDistCSV(&buf, dists); err != nil {
		t.Fatal(err)
	}
	recs := parseCSV(t, &buf, 3)
	if len(recs) != 3 { // header + 2 nonzero buckets
		t.Fatalf("%d rows", len(recs))
	}
}

func TestRelatedCSV(t *testing.T) {
	rc := RelatedComparison{Dataset: "x", Rows: []RelatedRow{
		{Algorithm: "Tarjan", Time: time.Millisecond, VsTarjan: 1},
	}}
	var buf bytes.Buffer
	if err := RelatedCSV(&buf, rc); err != nil {
		t.Fatal(err)
	}
	parseCSV(t, &buf, 5)
}
