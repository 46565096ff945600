package main

import (
	"strings"
	"testing"

	"repro/experiments"
)

func TestParseThreads(t *testing.T) {
	got, err := parseThreads("1, 2,16")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 16}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "a", "0", "-1", "1,,2"} {
		if _, err := parseThreads(bad); err == nil {
			t.Fatalf("parseThreads(%q) accepted", bad)
		}
	}
}

func TestSelectDatasets(t *testing.T) {
	all := []string{"a", "b"}
	if got := selectDatasets("", all); len(got) != 2 {
		t.Fatalf("empty selection %v", got)
	}
	if got := selectDatasets("x,y", all); len(got) != 2 || got[0] != "x" {
		t.Fatalf("explicit selection %v", got)
	}
}

func TestDefaultTo(t *testing.T) {
	if defaultTo("", "d") != "d" || defaultTo("v", "d") != "v" {
		t.Fatal("defaultTo wrong")
	}
}

// TestCheckExperiment accepts every listed experiment and rejects any
// other name with an error that lists the valid ones.
func TestCheckExperiment(t *testing.T) {
	for _, name := range experimentNames {
		if err := checkExperiment(name); err != nil {
			t.Errorf("checkExperiment(%q) = %v", name, err)
		}
	}
	for _, bad := range []string{"nosuch", "dist", "", "Table1"} {
		err := checkExperiment(bad)
		if err == nil {
			t.Fatalf("checkExperiment(%q) accepted", bad)
		}
		for _, name := range experimentNames {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("error for %q does not list %q: %v", bad, name, err)
			}
		}
	}
}

// TestParseMode accepts the two sweep modes and rejects any other
// value, a misspelling included, with an error that lists both.
func TestParseMode(t *testing.T) {
	for _, m := range []experiments.Mode{experiments.Modeled, experiments.Measured} {
		if got, err := parseMode(m.String()); err != nil || got != m {
			t.Errorf("parseMode(%q) = %v, %v", m, got, err)
		}
	}
	for _, bad := range []string{"measurd", "", "Measured", "model"} {
		_, err := parseMode(bad)
		if err == nil || !strings.Contains(err.Error(), "modeled") || !strings.Contains(err.Error(), "measured") {
			t.Errorf("parseMode(%q) error = %v; want one listing modeled and measured", bad, err)
		}
	}
}
