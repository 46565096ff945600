package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for none). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.999999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms and us convert a duration to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rssPeak tracks the peak resident set size over the samples taken with
// sample. newRSSPeak first returns the heap's free pages to the system,
// so the peak covers what the measured work holds and not the garbage of
// input generation. Samples are taken between operations, where a
// sampling goroutine would take a CPU from the workers it measures.
type rssPeak struct{ bytes int64 }

func newRSSPeak() *rssPeak {
	debug.FreeOSMemory()
	return &rssPeak{bytes: residentBytes()}
}

func (p *rssPeak) sample() { p.bytes = max(p.bytes, residentBytes()) }

// mib returns the peak in MiB.
func (p *rssPeak) mib() float64 { return float64(p.bytes) / (1 << 20) }

// residentBytes is the process's current resident set size.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcStats is a window's garbage-collector deltas. cycles
// leaves out the collections the benchmark forces between detections;
// pause covers every collection.
type gcStats struct {
	cycles      uint32
	pause       time.Duration
	start, stop runtime.MemStats
}

func (g *gcStats) begin() { runtime.ReadMemStats(&g.start) }

func (g *gcStats) end() {
	runtime.ReadMemStats(&g.stop)
	g.cycles = (g.stop.NumGC - g.start.NumGC) - (g.stop.NumForcedGC - g.start.NumForcedGC)
	g.pause = time.Duration(g.stop.PauseTotalNs - g.start.PauseTotalNs)
}

// host describes the machine and build.
type host struct {
	nproc, gomaxprocs int
	cpu, goVersion    string
}

func hostInfo() host {
	h := host{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		cpu:        "unknown",
		goVersion:  runtime.Version(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
