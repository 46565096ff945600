package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/seq"
)

func tinyParams(t *testing.T, seed int64, traced bool) params {
	return params{seed: seed, seconds: 1, trace: traced, workdir: t.TempDir(), tiny: true}
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// scale and checks that it passes its own correctness checks and reports
// every catalog metric.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			rep, err := w.run(context.Background(), tinyParams(t, 3, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.correct() {
				t.Fatalf("%s traced=%v: %d of %d failed: %v", w.name, traced, rep.failed, rep.attempted, rep.failures)
			}
			for _, d := range e2eCatalog {
				if v := rep.e2e[d.name]; v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, v)
				}
			}
			checkResultLine(t, rep, traced)
		}
	}
}

// checkResultLine prints the report and checks that its last line is
// the result object with exactly the catalog's metrics.
func checkResultLine(t *testing.T, rep *report, traced bool) {
	t.Helper()
	var buf bytes.Buffer
	printReport(&buf, rep, traced)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int64
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	cat := e2eCatalog
	if traced {
		cat = layerCatalog
	}
	if !res.Correct || res.Attempted != rep.attempted || len(res.Metrics) != len(cat) {
		t.Fatalf("result line %+v", res)
	}
	for _, d := range cat {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("result line lacks %s", d.name)
		}
	}
}

// TestStreamsReproducible checks that a seed fixes the query and update
// streams byte for byte, and that another seed changes them.
func TestStreamsReproducible(t *testing.T) {
	render := func(seed int64) []byte {
		p := tinyParams(t, seed, false)
		st := makeServeStream(p, shapeFor(p))
		var b bytes.Buffer
		for _, q := range st.queries {
			b.WriteString(q.path() + "\n")
		}
		for _, body := range st.bodies {
			b.WriteString(body + "--\n")
		}
		return b.Bytes()
	}
	a, b, c := render(5), render(5), render(6)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("seed 5 gave different streams (%d vs %d bytes)", len(a), len(b))
	}
	if bytes.Equal(a, c) {
		t.Fatal("seeds 5 and 6 gave the same streams")
	}
}

// TestWrongPartitionCaught feeds the detect loop a perturbed oracle and
// checks that every detection is counted as failed.
func TestWrongPartitionCaught(t *testing.T) {
	p := tinyParams(t, 1, false)
	g := flickrGraph(1.0/64, p.seed)
	want, _ := seq.Tarjan(g)
	bad := slices.Clone(want)
	for v := 1; v < len(bad); v++ {
		if bad[v] != bad[0] {
			bad[v] = bad[0] // moves v into node 0's component
			break
		}
	}
	rep := &report{}
	if _, err := detectWindow(context.Background(), p, g, bad, rep, false); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.failed != rep.attempted {
		t.Fatalf("failed %d of %d detections, want all", rep.failed, rep.attempted)
	}
}

// flipReachable rewrites every /reachable answer to its negation.
type flipReachable struct{ next http.Handler }

func (f flipReachable) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := httptest.NewRecorder()
	f.next.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if r.URL.Path == "/reachable" {
		var m map[string]any
		if err := json.Unmarshal(body, &m); err == nil {
			m["reachable"] = !m["reachable"].(bool)
			body, _ = json.Marshal(m)
		}
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// TestFlippedReachableCaught serves answers with the reachable bit
// flipped and checks that the post-load sample counts each as failed.
func TestFlippedReachableCaught(t *testing.T) {
	p := tinyParams(t, 1, false)
	sh := shapeFor(p)
	st := makeServeStream(p, sh)
	live, _, err := startServer(context.Background(), p, st.g, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer live.close()
	live.ts = httptest.NewServer(flipReachable{live.srv.Handler()})

	rep := &report{}
	checkServed(live, st, nil, sh.samples, 1, rep)
	// Every odd sample is a reachable query.
	if want := int64(sh.samples / 2); rep.failed != want {
		t.Fatalf("failed %d of %d checks, want %d: %v", rep.failed, rep.attempted, want, rep.failures)
	}
	for _, f := range rep.failures {
		if !strings.Contains(f, "/reachable") {
			t.Fatalf("unexpected failure %q", f)
		}
	}
}

// TestSelfTimes checks the self-time arithmetic on a hand-built tree:
//
//	root   [0, 100]
//	  a    [10, 30]     child b [15, 20]
//	  c    [20, 50]     overlaps a
//	  d    [90, 120]    runs past root's end
//	other  [0, 40]      a second root, no children
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 2, Name: "b", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "c", Start: 20, End: 50},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120},
		{ID: 6, Name: "other", Start: 0, End: 40},
	}
	got := selfTimes(spans)
	// root: children cover [10, 50] and [90, 100], 50 of 100.
	want := map[int64]time.Duration{1: 50, 2: 15, 3: 5, 4: 30, 5: 30, 6: 40}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %v, want %v", id, got[id], w)
		}
	}
	byName := selfByName(append(spans, span{ID: 7, Name: "other", Start: 50, End: 55}))
	if byName["other"] != 45 {
		t.Errorf("self time of name other = %v, want 45", byName["other"])
	}
}

// TestOpenLoopStops checks that requests still due after the stop time
// are returned as unsent and that each sent request has a lag sample.
func TestOpenLoopStops(t *testing.T) {
	t0 := time.Now()
	sent := 0
	unsent, lag := openLoop(20, 100, t0, t0.Add(95*time.Millisecond), func(int, time.Time) { sent++ })
	if unsent == 0 || sent == 0 || sent+unsent != 20 || len(lag) != sent {
		t.Fatalf("sent %d, unsent %d, %d lag samples", sent, unsent, len(lag))
	}
}

// TestCatalogMatchesBenchmarkJSON holds the workload list and the metric
// catalogs equal to BENCHMARK.json at the repository root.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name+": "+w.why)
	}
	var jnames []string
	for _, w := range b.Workloads {
		jnames = append(jnames, w.Name+": "+w.Why)
	}
	if !slices.Equal(names, jnames) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, jnames)
	}
	same := func(what string, cat []metricDef, js []metric) {
		if len(cat) != len(js) {
			t.Errorf("%s: %d metrics, BENCHMARK.json has %d", what, len(cat), len(js))
			return
		}
		for i, d := range cat {
			if d.name != js[i].Name || d.unit != js[i].Unit {
				t.Errorf("%s %d: %s %s, BENCHMARK.json has %s %s", what, i, d.name, d.unit, js[i].Name, js[i].Unit)
			}
		}
	}
	same("end_to_end", e2eCatalog, b.EndToEnd)
	same("per_layer", layerCatalog, b.PerLayer)
}
