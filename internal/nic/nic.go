// Package nic models the network interface hardware of the testbed: the
// 100 Gb/s ConnectX-6 Dx port and the embedded switch (eSwitch) inside it.
//
// The eSwitch is modelled in on-path mode only, the one mode the paper
// evaluates (§2.3; NVIDIA discontinued off-path support): the BlueField-2
// CPU programs OvS forwarding rules into the eSwitch, which then steers
// each ingress packet in hardware either to the SNIC CPU's local stack or
// across PCIe to the host CPU. The PCIe crossing is a fixed latency
// (ESwitch.HostExtraDelay) on host deliveries, not a bus resource.
package nic

import (
	"fmt"

	"repro/internal/sim"
)

// LineRateBits is the port speed of both the ConnectX-6 Dx and the
// BlueField-2 (dual 100 Gb/s ports; the testbed uses one).
const LineRateBits = 100e9

// EthernetOverhead is the per-frame wire overhead (preamble 8 + FCS 4 +
// IFG 12) added on top of the L2 frame.
const EthernetOverhead = 24

// MTU is the paper's OvS/REM packet size (§3.4).
const MTU = 1500

// Packet is the unit that crosses the simulated wire.
type Packet struct {
	Seq    uint64
	Size   int      // L2 frame bytes (headers + payload)
	Flow   uint64   // flow identifier for steering and NAT/OvS lookups
	SentAt sim.Time // client-side departure time, for RTT accounting
	// Span optionally carries a telemetry span identifier so sinks can
	// attach stage timings to the request that triggered them; zero
	// means untraced.
	Span uint32

	// recv is the receiver a Wire delivers the packet to, held here from
	// send to arrival so the in-flight frame needs no closure. A packet
	// is in flight on at most one wire direction at a time.
	recv func(*Packet)
}

// Destination names the on-NIC steering targets of Fig. 2.
type Destination int

const (
	// ToHostCPU steers across PCIe into the host networking stack.
	ToHostCPU Destination = iota
	// ToSNICCPU steers into the BlueField-2 Arm cores' local stack.
	ToSNICCPU
	// ToAccelerator steers to SNIC CPU staging cores that feed a
	// fixed-function engine (REM/compress path of §2.2).
	ToAccelerator
	// Drop discards the packet in hardware.
	Drop
	// ToWire forwards straight back out the port in hardware — the
	// per-flow offload fast path: a resident eSwitch rule rewrites and
	// reflects the packet with no CPU anywhere touching it.
	ToWire

	// numDestinations sizes the eSwitch's sink table.
	numDestinations = iota
)

// valid reports whether d is one of the destinations above.
//
//snicvet:hotpath
func (d Destination) valid() bool { return d >= 0 && d < numDestinations }

func (d Destination) String() string {
	switch d {
	case ToHostCPU:
		return "host-cpu"
	case ToSNICCPU:
		return "snic-cpu"
	case ToAccelerator:
		return "snic-accel"
	case Drop:
		return "drop"
	case ToWire:
		return "wire-fast"
	default:
		return fmt.Sprintf("dest(%d)", int(d))
	}
}

// SteerFunc decides a packet's destination; it is the data-plane rule set
// the control plane installs.
type SteerFunc func(*Packet) Destination

// Sink consumes steered packets. The eSwitch schedules a delivery as an
// engine event with the sink as handler and the *Packet as argument, so
// a pointer-receiver sink costs no allocation per packet.
type Sink interface {
	sim.EventHandler
}

// ESwitch is the embedded switch: hardware match-action steering at line
// rate. Forwarding adds a small fixed latency; host-destined packets pay
// an additional PCIe crossing handled by the configured hostDelay.
type ESwitch struct {
	eng   *sim.Engine
	steer SteerFunc
	// sinks holds each destination's Sink as the engine handler it is
	// scheduled with, converted once at connect time.
	sinks [numDestinations]sim.EventHandler

	// SwitchDelay is the hardware match-action latency.
	SwitchDelay sim.Duration
	// HostExtraDelay is the added PCIe DMA latency for ToHostCPU
	// deliveries (the packet must cross the interconnect to host DRAM).
	HostExtraDelay sim.Duration
}

// NewESwitch returns an eSwitch with typical ConnectX-6 hardware
// latencies and a default-drop rule set.
func NewESwitch(eng *sim.Engine) *ESwitch {
	return &ESwitch{
		eng:            eng,
		steer:          func(*Packet) Destination { return Drop },
		SwitchDelay:    300 * sim.Nanosecond,
		HostExtraDelay: 700 * sim.Nanosecond,
	}
}

// Program installs the steering rules (the OvS control-plane action).
func (sw *ESwitch) Program(f SteerFunc) {
	if f == nil {
		panic("nic: programming nil steering function")
	}
	sw.steer = f
}

// ConnectSink registers the consumer for a destination. A destination
// outside the enum above is a wiring bug and panics, as a nil sink does.
func (sw *ESwitch) ConnectSink(d Destination, s Sink) {
	if s == nil {
		panic("nic: connecting nil sink")
	}
	if !d.valid() {
		panic(fmt.Sprintf("nic: connecting sink to unknown destination %v", d))
	}
	sw.sinks[d] = s
}

// Ingress accepts a packet from the wire and steers it.
//
//snicvet:hotpath
func (sw *ESwitch) Ingress(p *Packet) {
	d := sw.steer(p)
	if !d.valid() {
		panic(noSinkError(d))
	}
	if d == Drop {
		return
	}
	sink := sw.sinks[d]
	if sink == nil {
		// A rule steering to an unconnected destination is a
		// configuration bug; drop loudly.
		panic(noSinkError(d))
	}
	delay := sw.SwitchDelay
	if d == ToHostCPU {
		delay += sw.HostExtraDelay
	}
	sw.eng.AfterCall(delay, sink, p)
}

// noSinkError describes a packet steered to a destination with no sink.
func noSinkError(d Destination) error {
	return fmt.Errorf("nic: no sink connected for %v", d)
}

// Wire is a full-duplex 100 GbE cable between client and server. Each
// direction is an independent serializing link; per-frame Ethernet
// overhead is added here so models deal only in L2 frame sizes.
type Wire struct {
	clientToServer *sim.Link
	serverToClient *sim.Link
}

// NewWireRate returns a wire whose two directions serialize at rateBits
// bits/s instead of the default 100 GbE line rate (rateBits <= 0 keeps
// the default) — slower optics or a rate-limited testbed port.
func NewWireRate(eng *sim.Engine, rateBits float64, propagation sim.Duration) *Wire {
	if rateBits <= 0 {
		rateBits = LineRateBits
	}
	return &Wire{
		clientToServer: sim.NewLink(eng, rateBits, propagation),
		serverToClient: sim.NewLink(eng, rateBits, propagation),
	}
}

// SendToServer transmits a frame toward the server and delivers it to
// recv at arrival. recv rides on the packet until then, so the frame is
// the packet itself and a send allocates nothing; callers in a hot loop
// pass a receiver they bound once.
//
//snicvet:hotpath
func (w *Wire) SendToServer(p *Packet, recv func(*Packet)) {
	p.recv = recv
	w.clientToServer.SendCall(p.Size+EthernetOverhead, (*arrival)(p))
}

// SendToClient transmits a frame toward the client, like SendToServer.
//
//snicvet:hotpath
func (w *Wire) SendToClient(p *Packet, recv func(*Packet)) {
	p.recv = recv
	w.serverToClient.SendCall(p.Size+EthernetOverhead, (*arrival)(p))
}

// arrival is a packet's link-delivery handler: the Packet under another
// method set, which keeps HandleEvent off Packet's API.
type arrival Packet

// HandleEvent hands the arrived packet to its receiver. The receiver is
// cleared first, so the packet can be sent again from inside it.
//
//snicvet:hotpath
func (a *arrival) HandleEvent(any) {
	p := (*Packet)(a)
	recv := p.recv
	p.recv = nil
	recv(p)
}

// SetDown flaps both directions of the cable (carrier loss): frames sent
// while down are lost in transit and never delivered. Transport-level
// recovery — timeouts, retries — is the caller's job, exactly as on a
// real wire.
func (w *Wire) SetDown(down bool) {
	w.clientToServer.SetDown(down)
	w.serverToClient.SetDown(down)
}

// Down reports whether the wire is currently flapped.
func (w *Wire) Down() bool { return w.clientToServer.Down() }

// SetRateFactor caps both directions at factor × line rate (a link
// renegotiated down under thermal or signal-integrity pressure).
func (w *Wire) SetRateFactor(f float64) {
	w.clientToServer.SetRateFactor(f)
	w.serverToClient.SetRateFactor(f)
}

// Lost returns frames lost to flaps, both directions combined.
func (w *Wire) Lost() uint64 { return w.clientToServer.Lost() + w.serverToClient.Lost() }

// ServerDirUtilization reports the client→server direction utilization.
func (w *Wire) ServerDirUtilization() float64 { return w.clientToServer.Utilization() }

// ClientDirUtilization reports the server→client direction utilization.
func (w *Wire) ClientDirUtilization() float64 { return w.serverToClient.Utilization() }

// Observe installs a telemetry observer bound to each direction: c2s
// on client→server, s2c on server→client.
func (w *Wire) Observe(c2s, s2c sim.LinkObserver) {
	w.clientToServer.Observe(c2s)
	w.serverToClient.Observe(s2c)
}

// ServerDirBacklog returns the client→server serialization backlog.
func (w *Wire) ServerDirBacklog() sim.Duration { return w.clientToServer.Backlog() }

// ClientDirBacklog returns the server→client serialization backlog.
func (w *Wire) ClientDirBacklog() sim.Duration { return w.serverToClient.Backlog() }
