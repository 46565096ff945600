package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cliflag"
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
		"fwbw": scc.FWBW, "fw-bw": scc.FWBW, "obf": scc.OBF,
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
		// The largest values that fit in an int64.
		"9223372036854775807": math.MaxInt64,
		"8589934591G":         8589934591 << 30,
	}
	for in, want := range cases {
		got, err := cliflag.ParseScaled(in, "-mem-limit")
		if err != nil || got != want {
			t.Fatalf("ParseScaled(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	// The last three overflow int64: 2^64 (which used to wrap to 0,
	// meaning no limit), 2^63 and 2^63 + 1 without a suffix.
	for _, bad := range []string{"-1", "x", "4T", "K", "1.5M", "17179869184G", "8589934592G", "9223372036854775808"} {
		if _, err := cliflag.ParseScaled(bad, "-mem-limit"); err == nil {
			t.Fatalf("ParseScaled(%q) accepted", bad)
		}
	}
}

func TestParseChaos(t *testing.T) {
	cfg, err := cliflag.ParseChaos("", "", 0, chaos.EngineSites())
	if err != nil || cfg != nil {
		t.Fatalf("empty flags: cfg=%v err=%v", cfg, err)
	}
	cfg, err = cliflag.ParseChaos("bfs:2", "task", 50*time.Millisecond, chaos.EngineSites())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PanicAt["bfs"] != 2 || cfg.StallAt["task"] != 1 || cfg.StallFor != 50*time.Millisecond {
		t.Fatalf("ParseChaos = %+v", cfg)
	}
	if _, err := cliflag.ParseChaos("nosuch", "", 0, chaos.EngineSites()); err == nil {
		t.Fatal("bad panic spec accepted")
	}
	if _, err := cliflag.ParseChaos("", "trim:0", 0, chaos.EngineSites()); err == nil {
		t.Fatal("bad stall spec accepted")
	}
	if _, err := cliflag.ParseChaos("bfs:9223372036854775808", "", 0, chaos.EngineSites()); err == nil {
		t.Fatal("overflowing hit ordinal accepted")
	}
}
