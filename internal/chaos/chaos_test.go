package chaos

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func recoverPanic(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

func TestParseSiteRoundTrip(t *testing.T) {
	for _, s := range Sites() {
		got, err := ParseSite(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseSite(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseSite("nosuch"); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestParseSpec(t *testing.T) {
	m, err := ParseSpec("trim:3,task:7")
	if err != nil {
		t.Fatal(err)
	}
	if m[SiteTrim] != 3 || m[SiteTask] != 7 || len(m) != 2 {
		t.Fatalf("ParseSpec = %v", m)
	}
	// A bare site name means its first hit.
	m, err = ParseSpec("bfs")
	if err != nil || m[SiteBFS] != 1 {
		t.Fatalf("bare site: %v, %v", m, err)
	}
	// Empty spec = nothing configured.
	if m, err := ParseSpec(""); err != nil || m != nil {
		t.Fatalf("empty spec: %v, %v", m, err)
	}
	for _, bad := range []string{"trim:0", "trim:-1", "trim:x", "nosuch:1", ","} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestFormatSpecRoundTrip(t *testing.T) {
	in := map[Site]int64{SiteWCC: 2, SiteTrim2: 9}
	out, err := ParseSpec(FormatSpec(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) || out[SiteWCC] != 2 || out[SiteTrim2] != 9 {
		t.Fatalf("round trip %v -> %q -> %v", in, FormatSpec(in), out)
	}
}

func TestNewNamed(t *testing.T) {
	panicAt := map[string]int64{"bfs": 2, "condense": 1, "wal": 0, "nosuch": 1}
	stallAt := map[string]int64{"incr": 3}

	// Unlimited: every known site with an ordinal >= 1 is armed.
	in := NewNamed(panicAt, stallAt, time.Second)
	if in.panicAt[SiteBFS] != 2 || in.panicAt[SiteCondense] != 1 || in.panicAt[SiteWAL] != 0 ||
		in.stallAt[SiteIncr] != 3 || in.stallFor != time.Second {
		t.Fatalf("unlimited: panicAt %v stallAt %v", in.panicAt, in.stallAt)
	}
	if NewNamed(nil, nil, 0) == nil {
		t.Fatal("unlimited with no entries: want an inert injector, got nil")
	}

	// Limited: only the listed sites are armed.
	in = NewNamed(panicAt, stallAt, 0, SiteCondense, SiteIncr)
	if in == nil || in.panicAt[SiteBFS] != 0 || in.panicAt[SiteCondense] != 1 || in.stallAt[SiteIncr] != 3 {
		t.Fatalf("limited: %+v", in)
	}
	// A limit that leaves no entry (wal:0 is not an entry) yields nil.
	if in := NewNamed(panicAt, stallAt, 0, SiteWAL, SiteSnapshot); in != nil {
		t.Fatalf("limit with no entries: want nil, got %+v", in)
	}
}

func TestPanicFiresAtExactOrdinal(t *testing.T) {
	in := New(Config{PanicAt: map[Site]int64{SiteBFS: 3}})
	in.Hit(SiteBFS) // 1
	in.Hit(SiteBFS) // 2
	in.Hit(SiteTrim)
	v := recoverPanic(func() { in.Hit(SiteBFS) }) // 3: fires
	p, ok := v.(Panic)
	if !ok || p.Site != SiteBFS || p.Hit != 3 {
		t.Fatalf("hit 3 panicked %v, want Panic{bfs,3}", v)
	}
	// The ordinal passed; later hits are clean again.
	in.Hit(SiteBFS)
	st := in.Stats()
	if st.Hits[SiteBFS] != 4 || st.Hits[SiteTrim] != 1 || st.Panics != 1 || st.Stalls != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPanicIsError(t *testing.T) {
	var err error = Panic{Site: SiteTask, Hit: 2}
	want := Panic{Site: SiteTask, Hit: 2}
	if !errors.As(err, &Panic{}) && err.Error() == "" {
		t.Fatal("Panic does not behave as an error")
	}
	if err != error(want) {
		t.Fatalf("Panic not comparable: %v", err)
	}
}

func TestStallResumesAfterStallFor(t *testing.T) {
	in := New(Config{StallAt: map[Site]int64{SiteWCC: 1}, StallFor: 10 * time.Millisecond})
	done := make(chan any, 1)
	go func() { done <- recoverPanic(func() { in.Hit(SiteWCC) }) }()
	select {
	case v := <-done:
		if v != nil {
			t.Fatalf("bounded stall panicked %v, want normal resume", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bounded stall never resumed")
	}
	if st := in.Stats(); st.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", st.Stalls)
	}
}

func TestReleaseUnwindsWedgedStall(t *testing.T) {
	in := New(Config{StallAt: map[Site]int64{SiteTrim: 1}}) // StallFor=0: true wedge
	done := make(chan any, 1)
	go func() { done <- recoverPanic(func() { in.Hit(SiteTrim) }) }()
	time.Sleep(10 * time.Millisecond) // let the worker park in the stall
	in.Release()
	in.Release() // idempotent
	select {
	case v := <-done:
		r, ok := v.(Released)
		if !ok || r.Site != SiteTrim {
			t.Fatalf("released stall panicked %v, want Released{trim}", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Release did not unwind the stall")
	}
}

func TestBoundDoneUnwindsWedgedStall(t *testing.T) {
	in := New(Config{StallAt: map[Site]int64{SiteTask: 1}})
	runDone := make(chan struct{})
	in.Bind(runDone)
	done := make(chan any, 1)
	go func() { done <- recoverPanic(func() { in.Hit(SiteTask) }) }()
	time.Sleep(10 * time.Millisecond)
	close(runDone) // run teardown (cancellation / watchdog abort)
	select {
	case v := <-done:
		if r, ok := v.(Released); !ok || r.Site != SiteTask {
			t.Fatalf("bound stall panicked %v, want Released{task}", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bound done close did not unwind the stall")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	for _, s := range Sites() {
		in.Hit(s)
	}
	in.Bind(make(chan struct{}))
	in.Release()
	if st := in.Stats(); st != (Stats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
}

func TestConcurrentHitsFirePanicOnce(t *testing.T) {
	in := New(Config{PanicAt: map[Site]int64{SiteTask: 50}})
	var wg sync.WaitGroup
	var panics int64
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if recoverPanic(func() { in.Hit(SiteTask) }) != nil {
					mu.Lock()
					panics++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	st := in.Stats()
	mu.Lock()
	defer mu.Unlock()
	if panics != 1 || st.Panics != 1 || st.Hits[SiteTask] != 200 {
		t.Fatalf("panics=%d stats=%+v, want exactly one injected panic over 200 hits", panics, st)
	}
}
