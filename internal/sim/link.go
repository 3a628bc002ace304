package sim

import "fmt"

// Link models a serializing transmission resource: an Ethernet port, a
// PCIe lane bundle, or a memory channel. A payload of n bytes occupies the
// link for n*8/rate seconds (store-and-forward), then arrives after an
// additional fixed propagation delay.
//
// Link is a single-server FIFO: frames cannot overtake each other, which
// is exactly how wire serialization behaves and is what produces
// line-rate saturation effects.
//
// Because arrivals leave in send order, the link holds its in-flight
// frames itself and keeps only the head frame in the engine's event
// queue. A link driven past line rate therefore costs the queue one
// entry, not one per backlogged frame.
type Link struct {
	eng         *Engine
	rateBits    float64
	propagation Duration
	freeAt      Time
	// inflight holds frames from Send to delivery in arrival order;
	// inflight[ihead] is the head, the only one queued in the engine.
	// Like Station's queue it is a ring with compaction: delivery
	// advances ihead instead of re-slicing, so the backing array is
	// reused.
	inflight []frame
	ihead    int
	// rateFactor scales the effective rate in (0,1]; fault injection uses
	// it to model a link renegotiated down (e.g. thermal throttling to a
	// lower PAM4 rate). 0 means "unset" and is treated as 1.
	rateFactor float64
	// down marks a flapped link: frames sent while down are lost in
	// transit (no delivery), the model of a carrier drop.
	down bool

	// Statistics.
	bytesSent  uint64
	framesSent uint64
	busyTime   Duration
	lost       uint64

	// Optional telemetry hook (see Observe).
	name string
	obs  LinkObserver
}

// NewLink returns a link with the given rate in bits/s and one-way
// propagation delay.
func NewLink(eng *Engine, rateBitsPerSec float64, propagation Duration) *Link {
	if rateBitsPerSec <= 0 {
		panic("sim: link rate must be positive")
	}
	if propagation < 0 {
		panic("sim: negative propagation delay")
	}
	return &Link{eng: eng, rateBits: rateBitsPerSec, propagation: propagation}
}

// RateBits returns the link rate in bits/s.
func (l *Link) RateBits() float64 { return l.rateBits }

// Observe installs a telemetry observer identified by name. Observers
// are pure recorders: they must not mutate model state.
func (l *Link) Observe(name string, obs LinkObserver) {
	l.name = name
	l.obs = obs
}

// SetRateFactor caps the effective rate at factor × nominal for frames
// sent from now on. Factor must be in (0, 1]; 1 restores full rate.
func (l *Link) SetRateFactor(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("sim: link rate factor %v outside (0,1]", f))
	}
	l.rateFactor = f
}

// SetDown flaps the link. While down, every Send loses its frame: the
// serialization slot is still consumed (the transmitter does not know the
// carrier is gone) but delivery never happens.
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports whether the link is flapped.
func (l *Link) Down() bool { return l.down }

// Lost returns frames sent while the link was down.
func (l *Link) Lost() uint64 { return l.lost }

// effectiveRate returns the rate with any fault cap applied.
func (l *Link) effectiveRate() float64 {
	if l.rateFactor > 0 {
		return l.rateBits * l.rateFactor
	}
	return l.rateBits
}

// Send transmits size bytes and invokes deliver at the instant the last
// bit arrives at the far end. It returns the departure completion time
// (when the link frees up, before propagation). The delivery callback
// is stored as-is — no wrapping closure — so a frame costs the link
// no allocation beyond whatever the caller's callback already is.
//
// The frame's event slot is reserved now, so it fires exactly where an
// event scheduled at Send time would. Only the link's head frame sits in
// the engine's queue; frames behind it are held by the link, not by the
// queue, until the frame ahead of them is delivered.
//
//snicvet:hotpath
func (l *Link) Send(size int, deliver func()) Time {
	if size < 0 {
		// A negative size would arrive ahead of the frames before it,
		// breaking the send-order arrivals the in-flight ring relies on.
		panic("sim: negative frame size")
	}
	now := l.eng.Now()
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	ser := DurationOf(size, l.effectiveRate())
	done := start.Add(ser)
	l.freeAt = done
	l.bytesSent += uint64(size)
	l.framesSent++
	l.busyTime += ser
	if l.obs != nil {
		l.obs.FrameSent(l.name, size, start, done, l.down)
	}
	if l.down {
		l.lost++
		return done
	}
	if deliver == nil {
		// Still mark the arrival instant: a nil-deliver frame must keep
		// advancing the clock (Backlog drains on Run), just without work.
		deliver = nopDeliver
	}
	l.enqueue(done.Add(l.propagation), deliver)
	return done
}

// nopDeliver stands in for a nil delivery callback. A reference to a
// package-level function is a constant funcval — no per-frame closure.
func nopDeliver() {}

// frame is one in-flight transmission: its delivery callback and the
// engine slot (arrival time, sequence number) reserved for it at Send
// time.
type frame struct {
	at      Time
	seq     uint64
	deliver func()
}

// enqueue appends a frame arriving at `at` to the in-flight ring. The
// first frame of an idle link is queued in the engine at once; later
// ones wait in the ring until they reach the head.
//
//snicvet:hotpath
func (l *Link) enqueue(at Time, deliver func()) {
	seq := l.eng.reserve()
	if l.ihead == len(l.inflight) {
		l.eng.scheduleReserved(at, seq, (*linkHead)(l))
	} else {
		l.eng.held++
	}
	if n := len(l.inflight); l.ihead > 0 && n == cap(l.inflight) && l.ihead >= n/2 {
		// Compact the live region to the front so append reuses the
		// backing array. Waiting until at least half of it is dead keeps
		// a backlog that hovers near capacity from copying on every Send.
		live := copy(l.inflight, l.inflight[l.ihead:])
		clear(l.inflight[live:])
		l.inflight = l.inflight[:live]
		l.ihead = 0
	}
	//snicvet:ignore hotpath -- amortized ring growth; a steady-state backlog reuses its capacity
	l.inflight = append(l.inflight, frame{at: at, seq: seq, deliver: deliver})
}

// linkHead is the engine handler for a link's head frame. It is the Link
// under another method set, which keeps HandleEvent off Link's API.
type linkHead Link

// HandleEvent delivers the head frame and queues the next one under its
// reserved slot before running the callback, so a callback that sends
// on the same link finds the ring consistent.
//
//snicvet:hotpath
func (h *linkHead) HandleEvent(any) {
	l := (*Link)(h)
	f := &l.inflight[l.ihead]
	deliver := f.deliver
	f.deliver = nil
	l.ihead++
	if l.ihead == len(l.inflight) {
		// Drained: rewind to the front of the backing array.
		l.inflight = l.inflight[:0]
		l.ihead = 0
	} else {
		next := &l.inflight[l.ihead]
		l.eng.held--
		l.eng.scheduleReserved(next.at, next.seq, h)
	}
	deliver()
}

// Backlog returns how far in the future the link is already committed,
// i.e. the serialization queue depth expressed as time.
func (l *Link) Backlog() Duration {
	now := l.eng.Now()
	if l.freeAt <= now {
		return 0
	}
	return l.freeAt.Sub(now)
}

// BytesSent returns the total payload bytes transmitted.
func (l *Link) BytesSent() uint64 { return l.bytesSent }

// FramesSent returns the number of Send calls completed or in flight.
func (l *Link) FramesSent() uint64 { return l.framesSent }

// Utilization returns busy time divided by elapsed virtual time.
func (l *Link) Utilization() float64 {
	elapsed := l.eng.Now().Sub(0)
	if elapsed <= 0 {
		return 0
	}
	u := float64(l.busyTime) / float64(elapsed)
	if u > 1 {
		u = 1 // transmissions scheduled into the future
	}
	return u
}
