package invariant

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

func TestCheckSpansCleanTree(t *testing.T) {
	rec := obs.NewRecorder(1, "clean")
	root := rec.Open(obs.TrackRequests, "request", sim.Time(100))
	child := rec.Begin(rec.Intern("serve"), root, sim.Time(120))
	rec.Close(child, sim.Time(180))
	rec.Close(root, sim.Time(200))
	if err := CheckSpans(rec, SpanCheckOpts{}); err != nil {
		t.Fatalf("clean tree flagged: %v", err)
	}
}

func TestCheckSpansNegativeDuration(t *testing.T) {
	rec := obs.NewRecorder(1, "neg")
	rec.Record(rec.Intern("serve"), 0, sim.Time(100), sim.Time(60))
	err := CheckSpans(rec, SpanCheckOpts{})
	v, ok := err.(*Violation)
	if !ok || v.Rule != RuleCausality {
		t.Fatalf("err = %v, want a causality violation", err)
	}
	if !strings.Contains(v.Detail, "negative duration") {
		t.Fatalf("detail = %q", v.Detail)
	}
	if v.Run != "neg" || v.Station != "requests/serve" {
		t.Fatalf("context = %q/%q, want run and requests/name", v.Run, v.Station)
	}
}

func TestCheckSpansChildBeforeParent(t *testing.T) {
	rec := obs.NewRecorder(1, "early")
	root := rec.Open(obs.TrackRequests, "request", sim.Time(100))
	// Child claims to start before the request arrived.
	child := rec.Begin(rec.Intern("serve"), root, sim.Time(50))
	rec.Close(child, sim.Time(150))
	rec.Close(root, sim.Time(200))
	err := CheckSpans(rec, SpanCheckOpts{})
	v, ok := err.(*Violation)
	if !ok || !strings.Contains(v.Detail, "before its parent") {
		t.Fatalf("err = %v, want a child-before-parent violation", err)
	}
}

func TestCheckSpansStraggler(t *testing.T) {
	rec := obs.NewRecorder(1, "strag")
	root := rec.Open(obs.TrackRequests, "request", sim.Time(100))
	child := rec.Begin(rec.Intern("serve"), root, sim.Time(120))
	rec.Close(root, sim.Time(150))  // request abandoned at timeout
	rec.Close(child, sim.Time(300)) // stale service copy finishes later
	if err := CheckSpans(rec, SpanCheckOpts{}); err == nil {
		t.Fatal("straggler not flagged in strict mode")
	}
	if err := CheckSpans(rec, SpanCheckOpts{AllowStragglers: true}); err != nil {
		t.Fatalf("straggler flagged despite AllowStragglers: %v", err)
	}
}

// Shed requests legitimately leave their root span open; only the start
// side is checkable.
func TestCheckSpansOpenSpansPass(t *testing.T) {
	rec := obs.NewRecorder(1, "open")
	root := rec.Open(obs.TrackRequests, "request", sim.Time(100))
	rec.Begin(rec.Intern("serve"), root, sim.Time(120)) // never closed
	rec.Close(root, sim.Time(150))
	if err := CheckSpans(rec, SpanCheckOpts{}); err != nil {
		t.Fatalf("open child flagged: %v", err)
	}
}

func TestCheckSpansNilRecorder(t *testing.T) {
	if err := CheckSpans(nil, SpanCheckOpts{}); err != nil {
		t.Fatalf("nil recorder flagged: %v", err)
	}
}

// A clean audit reads spans in place and builds no label, so it
// allocates nothing however many spans the run recorded.
func TestCheckSpansCleanAuditAllocatesNothing(t *testing.T) {
	rec := obs.NewRecorder(1, "clean")
	for i := 0; i < 2500; i++ {
		at := sim.Time(i * 100)
		root := rec.Open(obs.TrackRequests, "request", at)
		rec.Record(rec.Intern("queue"), root, at, at+10)
		rec.Record(rec.Intern("cpu-service"), root, at+10, at+60)
		rec.Close(root, at+70)
		rec.Open(obs.TrackRequests, "request", at) // left open, like a shed request
	}
	if n := rec.SpanCount(); n != 10000 {
		t.Fatalf("recorded %d spans, want 10000", n)
	}
	var err error
	allocs := testing.AllocsPerRun(10, func() { err = CheckSpans(rec, SpanCheckOpts{}) })
	if err != nil {
		t.Fatalf("clean tree flagged: %v", err)
	}
	if allocs != 0 {
		t.Fatalf("CheckSpans allocated %v times on a clean 10,000-span run, want 0", allocs)
	}
}

// An audit needs the spans themselves: once a collector that writes no
// trace has taken the run and dropped them, CheckSpans says so instead
// of passing vacuously.
func TestCheckSpansAfterDrop(t *testing.T) {
	c := obs.NewCollector()
	rec := c.NewRecorder(1, "dropped")
	rec.Record(rec.Intern("serve"), 0, sim.Time(100), sim.Time(60)) // would violate
	c.Attach(rec)
	if err := CheckSpans(rec, SpanCheckOpts{}); !errors.Is(err, obs.ErrSpansDropped) {
		t.Fatalf("CheckSpans after drop = %v, want obs.ErrSpansDropped", err)
	}
}
