package events

import (
	"context"
	"testing"
)

// TestNilSinkFastPath pins the zero-cost contract: no observer and no
// cancellable context yields a nil sink, and every method of a nil
// sink is safe.
func TestNilSinkFastPath(t *testing.T) {
	s := NewSink(context.Background(), nil)
	if s != nil {
		t.Fatal("background context + nil observer should give a nil sink")
	}
	if s.Err() != nil || s.Active() || s.Context() != nil {
		t.Fatal("nil sink methods must be inert")
	}
	s.SetPhase(3)
	s.Emit(Event{Type: TrimRound})

	var nilSink *Sink
	nilSink.Emit(Event{})
	if nilSink.Err() != nil {
		t.Fatal("nil sink Err must be nil")
	}
}

type capture struct{ got []Event }

func (c *capture) Observe(ev Event) { c.got = append(c.got, ev) }

// TestSinkPhaseStamping checks Emit stamps the current phase.
func TestSinkPhaseStamping(t *testing.T) {
	obs := &capture{}
	s := NewSink(context.Background(), obs)
	if s == nil || !s.Active() {
		t.Fatal("observer must activate the sink")
	}
	s.SetPhase(2)
	s.Emit(Event{Type: BFSLevel, Round: 1})
	s.SetPhase(4)
	s.Emit(Event{Type: TaskDone})
	if len(obs.got) != 2 || obs.got[0].Phase != 2 || obs.got[1].Phase != 4 {
		t.Fatalf("phase stamping wrong: %+v", obs.got)
	}
}

// TestSinkCancelOnly checks that a cancellable context without an
// observer still produces a sink that reports Err but emits nothing.
func TestSinkCancelOnly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSink(ctx, nil)
	if s == nil {
		t.Fatal("cancellable context must produce a sink")
	}
	if s.Active() {
		t.Fatal("no observer: sink must not be active")
	}
	if s.Err() != nil {
		t.Fatal("premature Err")
	}
	s.Emit(Event{Type: WCCRound}) // must not panic with no observer
	cancel()
	if s.Err() == nil {
		t.Fatal("Err must surface cancellation")
	}
}

// TestTypeString pins the name of every event type, and the fallback
// for a value past the last one.
func TestTypeString(t *testing.T) {
	names := map[Type]string{
		PhaseStart:  "PhaseStart",
		PhaseEnd:    "PhaseEnd",
		TrimRound:   "TrimRound",
		BFSLevel:    "BFSLevel",
		WCCRound:    "WCCRound",
		QueueSample: "QueueSample",
		TaskDone:    "TaskDone",
		RunMetrics:  "RunMetrics",
		Stalled:     "Stalled",
		Stalled + 1: "Unknown",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Fatalf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}
