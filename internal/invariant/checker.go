package invariant

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Per-request lifecycle states for the conservation ledger.
const (
	reqAbsent uint8 = iota
	reqInFlight
	reqCompleted
	reqDropped
)

// Resource is the checker bound to one named station, batch engine or
// link: what the checker knows about it, and its observer.
// Checker.Resource binds it when a run is wired, so a callback reaches
// the resource's bounds without a lookup. It implements
// sim.StationObserver, sim.LinkObserver and sim.BatchObserver.
type Resource struct {
	c    *Checker
	name string
	// known marks stations registered explicitly (with authoritative
	// servers/capacity) as opposed to ones only observed.
	known    bool
	servers  int
	capacity int
	// probe reads the station's live (busy, queued) counters; nil when
	// the station's internals are not reachable (batch engines).
	probe func() (busy, queued int)
}

// Checker validates the simulator's physical laws online. Its Resource
// observers install exactly where the telemetry recorder's do; the
// request ledger (Inject/Complete/Drop) is driven by the run drivers
// themselves.
//
// Like the recorder, a Checker belongs to one run and is driven
// synchronously from that run's event loop — no locking. All methods are
// nil-safe: a nil *Checker is "checks off" and costs one nil test.
type Checker struct {
	run      string
	failFast bool
	first    *Violation

	// clock is the high-water mark of observed virtual time.
	clock sim.Time

	injected, completed, dropped  uint64
	bytesIn, bytesDone, bytesDrop uint64
	// spans counts the child spans audited (see Span).
	spans uint64
	// state is each request's lifecycle state, indexed by its sequence
	// number (see dense).
	state []uint8

	resources map[string]*Resource

	// Per-phase hop ledgers (pipeline runs), indexed by PhaseID-1 in
	// bind order; nil until the first Phase. inPhase holds each
	// request's current phase (0: in no phase), indexed by sequence
	// number, and inside counts the requests in a phase.
	phases  []phaseLedger
	inPhase []PhaseID
	inside  int

	// Flow-offload datapath ledger (offload runs); nil until the first
	// fast/slow classification (see flows.go).
	flows *flowLedger
}

// New returns a fail-fast checker for the named run: the first violation
// panics with the typed *Violation.
func New(run string) *Checker {
	return &Checker{
		run:       run,
		failFast:  true,
		resources: make(map[string]*Resource),
	}
}

// Soft switches the checker to collecting mode: violations record (first
// one wins) instead of panicking. Tests use it to assert on the
// violation; production wiring keeps fail-fast.
func (c *Checker) Soft() *Checker {
	c.failFast = false
	return c
}

// Run returns the checker's run label. Nil-safe.
func (c *Checker) Run() string {
	if c == nil {
		return ""
	}
	return c.run
}

// Err returns the first recorded violation, or nil. Nil-safe.
func (c *Checker) Err() error {
	if c == nil || c.first == nil {
		return nil
	}
	return c.first
}

// violate records v (first violation wins) and panics in fail-fast mode.
func (c *Checker) violate(v *Violation) {
	v.Run = c.run
	if c.first == nil {
		c.first = v
	}
	if c.failFast {
		panic(v)
	}
}

// advance checks clock monotonicity against an observed event time and
// moves the high-water mark.
func (c *Checker) advance(now sim.Time) {
	if now < c.clock {
		c.violate(&Violation{
			Rule: RuleClock, Time: now,
			Detail: fmt.Sprintf("observed time %v after %v", now, c.clock),
		})
		return
	}
	c.clock = now
}

// Now returns the checker's observed-time high-water mark. Nil-safe.
func (c *Checker) Now() sim.Time {
	if c == nil {
		return 0
	}
	return c.clock
}

// Resource returns the checker's observer bound to the named resource,
// creating its state on first bind; binding a name twice returns the
// same observer. Call it when a run is wired, not per event. A nil
// checker returns nil, which must not be installed as an observer: a
// typed nil in an interface defeats the resources' nil check.
func (c *Checker) Resource(name string) *Resource {
	if c == nil {
		return nil
	}
	rs, ok := c.resources[name]
	if !ok {
		rs = &Resource{c: c, name: name}
		c.resources[name] = rs
	}
	return rs
}

// RegisterStation declares a station's ground truth: its server count
// and queue capacity (0 = unbounded), plus an optional probe reading its
// live (busy, queued) counters. Registered bounds turn the occupancy and
// capacity checks from non-negativity into exact range checks. The
// station's bound observer is updated in place, so registering before
// or after binding checks the same bounds. Nil-safe.
func (c *Checker) RegisterStation(name string, servers, capacity int, probe func() (busy, queued int)) {
	if c == nil {
		return
	}
	rs := c.Resource(name)
	rs.known, rs.servers, rs.capacity, rs.probe = true, servers, capacity, probe
}

// violate reports a violation on this resource.
func (rs *Resource) violate(rule Rule, now sim.Time, detail string) {
	rs.c.violate(&Violation{Rule: rule, Time: now, Station: rs.name, Detail: detail})
}

// probeCheck validates a station's live counters against its bounds.
func (rs *Resource) probeCheck(now sim.Time) {
	if rs.probe == nil {
		return
	}
	busy, queued := rs.probe()
	switch {
	case busy < 0:
		rs.violate(RuleQueue, now, fmt.Sprintf("occupancy %d is negative", busy))
	case rs.servers > 0 && busy > rs.servers:
		rs.violate(RuleQueue, now, fmt.Sprintf("occupancy %d exceeds %d servers", busy, rs.servers))
	}
	switch {
	case queued < 0:
		rs.violate(RuleQueue, now, fmt.Sprintf("queue length %d is negative", queued))
	case rs.capacity > 0 && queued > rs.capacity:
		rs.violate(RuleQueue, now, fmt.Sprintf("queue length %d exceeds capacity %d", queued, rs.capacity))
	}
}

// ---- dense per-request tables ----

// maxSeqGap bounds how far past a per-request table's end a sequence
// number may land. Every run driver numbers its requests densely from 0
// (the count sent so far, or failover's nextSeq), so the request,
// phase and datapath ledgers are slices indexed by sequence number. A
// number further out than this is a driver bug, reported as a
// violation rather than grown into a huge table.
const maxSeqGap = 1 << 20

// at returns seq's entry in a per-request table, or the zero value
// (absent) past its end.
func at[T ~uint8 | ~uint32](tab []T, seq uint64) T {
	if seq < uint64(len(tab)) {
		return tab[seq]
	}
	return 0
}

// dense grows *tab to cover seq and returns seq's slot, or nil when seq
// lies more than maxSeqGap past the table's end. Tables only grow, so
// entries past the length are still zero when a reslice reaches them.
func dense[T ~uint8 | ~uint32](tab *[]T, seq uint64) *T {
	if n := uint64(len(*tab)); seq >= n {
		if seq-n > maxSeqGap {
			return nil
		}
		*tab = slices.Grow(*tab, int(seq+1-n))[:seq+1]
	}
	return &(*tab)[seq]
}

// notDense is the violation for a sequence number that breaks the dense
// numbering a ledger relies on.
func notDense(rule Rule, seq uint64, size int, now sim.Time) *Violation {
	return &Violation{Rule: rule, Time: now, Request: seq,
		Detail: fmt.Sprintf("sequence number is not dense: %d is more than %d past the ledger's %d entries",
			seq, maxSeqGap, size)}
}

// ---- request/byte conservation ledger ----

// Inject records a request entering the system with its payload size.
// Sequence numbers are dense per run: a driver numbers its requests
// from 0 upward, and a number more than 1<<20 past the ledger's end is
// a RuleRequestState violation. Nil-safe.
func (c *Checker) Inject(seq uint64, bytes int, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	if bytes < 0 {
		c.violate(&Violation{Rule: RuleBytes, Time: now, Request: seq,
			Detail: fmt.Sprintf("negative payload %d bytes", bytes)})
		return
	}
	st := dense(&c.state, seq)
	if st == nil {
		c.violate(notDense(RuleRequestState, seq, len(c.state), now))
		return
	}
	if *st != reqAbsent {
		c.violate(&Violation{Rule: RuleRequestState, Time: now, Request: seq,
			Detail: fmt.Sprintf("injected twice (state %d)", *st)})
		return
	}
	*st = reqInFlight
	c.injected++
	c.bytesIn += uint64(bytes)
}

// Complete records a request's single successful completion. Nil-safe.
func (c *Checker) Complete(seq uint64, bytes int, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	switch at(c.state, seq) {
	case reqInFlight:
		c.state[seq] = reqCompleted
		c.completed++
		if bytes > 0 {
			c.bytesDone += uint64(bytes)
		}
	case reqAbsent:
		c.violate(&Violation{Rule: RuleRequestState, Time: now, Request: seq,
			Detail: "completed without being injected"})
	case reqCompleted:
		c.violate(&Violation{Rule: RuleRequestState, Time: now, Request: seq,
			Detail: "completed twice"})
	case reqDropped:
		c.violate(&Violation{Rule: RuleRequestState, Time: now, Request: seq,
			Detail: "completed after being dropped"})
	}
}

// Drop records a request shed or abandoned. Nil-safe.
func (c *Checker) Drop(seq uint64, bytes int, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	switch at(c.state, seq) {
	case reqInFlight:
		c.state[seq] = reqDropped
		c.dropped++
		if bytes > 0 {
			c.bytesDrop += uint64(bytes)
		}
	case reqAbsent:
		c.violate(&Violation{Rule: RuleRequestState, Time: now, Request: seq,
			Detail: "dropped without being injected"})
	default:
		c.violate(&Violation{Rule: RuleRequestState, Time: now, Request: seq,
			Detail: "dropped after already being resolved"})
	}
}

// Injected, Completed, Dropped and InFlight expose the ledger. Nil-safe.
func (c *Checker) Injected() uint64 {
	if c == nil {
		return 0
	}
	return c.injected
}

// Completed returns resolved-successfully requests. Nil-safe.
func (c *Checker) Completed() uint64 {
	if c == nil {
		return 0
	}
	return c.completed
}

// Dropped returns shed or abandoned requests. Nil-safe.
func (c *Checker) Dropped() uint64 {
	if c == nil {
		return 0
	}
	return c.dropped
}

// InFlight returns requests injected but not yet resolved. Nil-safe.
func (c *Checker) InFlight() uint64 {
	if c == nil {
		return 0
	}
	return c.injected - c.completed - c.dropped
}

// VerifyCounts cross-checks the ledger against a run driver's own
// sent/completed counters — the two are maintained independently, so a
// mismatch means one side lost track of a request. Nil-safe.
func (c *Checker) VerifyCounts(sent, completed uint64, now sim.Time) {
	if c == nil {
		return
	}
	c.advance(now)
	if c.injected != sent {
		c.violate(&Violation{Rule: RuleConservation, Time: now,
			Detail: fmt.Sprintf("ledger saw %d injections, driver sent %d", c.injected, sent)})
	}
	if c.completed != completed {
		c.violate(&Violation{Rule: RuleConservation, Time: now,
			Detail: fmt.Sprintf("ledger saw %d completions, driver recorded %d", c.completed, completed)})
	}
}

// Finish runs the end-of-run conservation checks: every injected request
// must be completed or dropped (a drained engine leaves nothing in
// flight), and payload bytes must balance the same way. It returns the
// first violation (including any recorded earlier) rather than
// panicking, so callers decide how a failed run dies. Nil-safe.
func (c *Checker) Finish(now sim.Time) error {
	if c == nil {
		return nil
	}
	ff := c.failFast
	c.failFast = false
	defer func() { c.failFast = ff }()
	c.advance(now)
	if inflight := c.injected - c.completed - c.dropped; inflight != 0 {
		c.violate(&Violation{Rule: RuleConservation, Time: now,
			Detail: fmt.Sprintf("injected %d != completed %d + dropped %d (%d unaccounted)",
				c.injected, c.completed, c.dropped, inflight)})
	}
	if c.bytesIn != c.bytesDone+c.bytesDrop {
		c.violate(&Violation{Rule: RuleBytes, Time: now,
			Detail: fmt.Sprintf("bytes in %d != completed %d + dropped %d",
				c.bytesIn, c.bytesDone, c.bytesDrop)})
	}
	c.finishPhases(now)
	c.finishFlows(now)
	return c.Err()
}

// ---- sim observer implementations ----

// JobQueued implements sim.StationObserver.
func (rs *Resource) JobQueued(now sim.Time, queueLen int) {
	rs.c.advance(now)
	if queueLen < 1 {
		rs.violate(RuleQueue, now, fmt.Sprintf("queued callback with queue length %d", queueLen))
	} else if rs.capacity > 0 && queueLen > rs.capacity {
		rs.violate(RuleQueue, now, fmt.Sprintf("queue length %d exceeds capacity %d", queueLen, rs.capacity))
	}
	rs.probeCheck(now)
}

// JobStarted implements sim.StationObserver.
func (rs *Resource) JobStarted(now sim.Time, waited sim.Duration) {
	rs.c.advance(now)
	if waited < 0 {
		rs.violate(RuleCausality, now, fmt.Sprintf("negative queue wait %v", waited))
	}
	rs.probeCheck(now)
}

// JobFinished implements sim.StationObserver.
func (rs *Resource) JobFinished(start, end sim.Time) {
	rs.c.advance(end)
	if end < start {
		rs.violate(RuleCausality, end, fmt.Sprintf("service ended at %v before it started at %v", end, start))
	}
	rs.probeCheck(end)
}

// JobDropped implements sim.StationObserver.
func (rs *Resource) JobDropped(now sim.Time) {
	rs.c.advance(now)
	if rs.known && rs.capacity == 0 {
		rs.violate(RuleQueue, now, "job dropped at an unbounded queue")
	}
	rs.probeCheck(now)
}

// FrameSent implements sim.LinkObserver. The callback fires at
// submission time with a serialization slot possibly in the future, so
// it must not advance the clock — it only checks the slot's sanity.
func (rs *Resource) FrameSent(size int, start, done sim.Time, _ bool) {
	if size < 0 {
		rs.violate(RuleBytes, start, fmt.Sprintf("negative frame size %d", size))
	}
	if clock := rs.c.clock; start < clock {
		rs.violate(RuleClock, start, fmt.Sprintf("serialization slot starts at %v before observed time %v", start, clock))
	}
	if done < start {
		rs.violate(RuleCausality, start, fmt.Sprintf("serialization ends at %v before it starts at %v", done, start))
	}
}

// BatchFlushed implements sim.BatchObserver.
func (rs *Resource) BatchFlushed(tasks int, waited sim.Duration, now sim.Time) {
	rs.c.advance(now)
	if tasks < 1 {
		rs.violate(RuleQueue, now, fmt.Sprintf("batch flushed with %d tasks", tasks))
	}
	if waited < 0 {
		rs.violate(RuleCausality, now, fmt.Sprintf("negative batch assembly wait %v", waited))
	}
}
