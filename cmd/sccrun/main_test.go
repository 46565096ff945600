package main

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/scc"
)

// The -alg flag goes through scc.ParseAlgorithm; these pin the names
// sccrun accepts, in the mixed case its users type.
func TestParseAlg(t *testing.T) {
	cases := map[string]scc.Algorithm{
		"tarjan":   scc.Tarjan,
		"Kosaraju": scc.Kosaraju,
		"BASELINE": scc.Baseline,
		"method1":  scc.Method1,
		"method2":  scc.Method2,
	}
	for in, want := range cases {
		got, err := scc.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := scc.ParseAlgorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestParseAlgExtended(t *testing.T) {
	for in, want := range map[string]scc.Algorithm{
		"fwbw": scc.FWBW, "fw-bw": scc.FWBW, "obf": scc.OBF, "coloring": scc.Coloring,
	} {
		got, err := scc.ParseAlgorithm(in)
		if err != nil || got != want {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", in, got, err)
		}
	}
}

func TestExitCode(t *testing.T) {
	wrap := func(err error) error { return &scc.Error{Op: "detect", Err: err} }
	cases := []struct {
		err  error
		want int
	}{
		{wrap(&scc.PanicError{Value: "boom"}), exitPanic},
		{wrap(fmt.Errorf("%w: wedged", scc.ErrStalled)), exitStalled},
		{wrap(fmt.Errorf("%w: 1 B", scc.ErrMemoryBudget)), exitBudget},
		{wrap(fmt.Errorf("%w: %w", scc.ErrCanceled, context.Canceled)), exitCanceled},
		{&scc.OptionError{Field: "K", Value: -1, Reason: "must be >= 0"}, exitCanceled},
		{errors.New("disk on fire"), exitFailure},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Fatalf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"":     0,
		"0":    0,
		"1234": 1234,
		"4k":   4 << 10,
		"4K":   4 << 10,
		"64M":  64 << 20,
		"2g":   2 << 30,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Fatalf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"-1", "x", "4T", "K", "1.5M"} {
		if _, err := parseBytes(bad); err == nil {
			t.Fatalf("parseBytes(%q) accepted", bad)
		}
	}
}

func TestParseChaos(t *testing.T) {
	cfg, err := parseChaos("", "", 0)
	if err != nil || cfg != nil {
		t.Fatalf("empty flags: cfg=%v err=%v", cfg, err)
	}
	cfg, err = parseChaos("bfs:2", "task", 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PanicAt["bfs"] != 2 || cfg.StallAt["task"] != 1 || cfg.StallFor != 50*time.Millisecond {
		t.Fatalf("parseChaos = %+v", cfg)
	}
	if _, err := parseChaos("nosuch", "", 0); err == nil {
		t.Fatal("bad panic spec accepted")
	}
	if _, err := parseChaos("", "trim:0", 0); err == nil {
		t.Fatal("bad stall spec accepted")
	}
}
