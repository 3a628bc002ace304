// Package nic models the network interface hardware of the testbed: the
// 100 Gb/s ConnectX-6 Dx port, the embedded switch (eSwitch) inside it,
// and the BlueField-2 operation modes of paper §2.3.
//
// In on-path mode (the only mode the paper evaluates — NVIDIA discontinued
// off-path support) the BlueField-2 CPU programs OvS forwarding rules into
// the eSwitch, which then steers each ingress packet in hardware either to
// the SNIC CPU's local stack or across PCIe to the host CPU.
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
	// Payload carries the application-level object (a KVS request, a
	// chunk to compress, ...). The simulator moves it; functions parse it.
	Payload any

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

	// numDestinations sizes the eSwitch's per-destination arrays.
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

// Mode is the BlueField-2 operation mode (paper §2.3).
type Mode int

const (
	// OnPath: SNIC CPU is the control plane; all steering rules live in
	// the eSwitch it programs. Required for the accelerators.
	OnPath Mode = iota
	// OffPath: the SNIC appears as an independent Ethernet node;
	// forwarding is by destination MAC. Modelled for completeness but
	// unused by the experiments, as in the paper.
	OffPath
)

func (m Mode) String() string {
	if m == OffPath {
		return "off-path"
	}
	return "on-path"
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

// SinkFunc adapts a plain function to a Sink.
type SinkFunc func(*Packet)

// HandleEvent delivers the packet to the function.
//
//snicvet:hotpath
func (f SinkFunc) HandleEvent(arg any) { f(arg.(*Packet)) }

// ESwitch is the embedded switch: hardware match-action steering at line
// rate. Forwarding adds a small fixed latency; host-destined packets pay
// an additional PCIe crossing handled by the configured hostDelay.
type ESwitch struct {
	eng   *sim.Engine
	mode  Mode
	steer SteerFunc
	// sinks holds each destination's Sink as the engine handler it is
	// scheduled with, converted once at connect time.
	sinks [numDestinations]sim.EventHandler

	// SwitchDelay is the hardware match-action latency.
	SwitchDelay sim.Duration
	// HostExtraDelay is the added PCIe DMA latency for ToHostCPU
	// deliveries (the packet must cross the interconnect to host DRAM).
	HostExtraDelay sim.Duration

	forwarded [numDestinations]uint64
}

// NewESwitch returns an eSwitch in on-path mode with typical ConnectX-6
// hardware latencies and a default-drop rule set.
func NewESwitch(eng *sim.Engine) *ESwitch {
	return &ESwitch{
		eng:            eng,
		mode:           OnPath,
		steer:          func(*Packet) Destination { return Drop },
		SwitchDelay:    300 * sim.Nanosecond,
		HostExtraDelay: 700 * sim.Nanosecond,
	}
}

// SetMode selects the operation mode.
func (sw *ESwitch) SetMode(m Mode) { sw.mode = m }

// Mode returns the current operation mode.
func (sw *ESwitch) Mode() Mode { return sw.mode }

// Program installs the steering rules (the OvS control-plane action).
func (sw *ESwitch) Program(f SteerFunc) {
	if f == nil {
		panic("nic: programming nil steering function")
	}
	sw.steer = f
}

// Connect registers a function as the consumer for a destination. It
// is ConnectSink with the function adapted by SinkFunc.
func (sw *ESwitch) Connect(d Destination, s func(*Packet)) {
	if s == nil {
		panic("nic: connecting nil sink")
	}
	sw.ConnectSink(d, SinkFunc(s))
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
	sw.forwarded[d]++
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

// Forwarded returns how many packets were steered to d (including
// drops); zero for a destination outside the enum.
func (sw *ESwitch) Forwarded(d Destination) uint64 {
	if !d.valid() {
		return 0
	}
	return sw.forwarded[d]
}

// Wire is a full-duplex 100 GbE cable between client and server. Each
// direction is an independent serializing link; per-frame Ethernet
// overhead is added here so models deal only in L2 frame sizes.
type Wire struct {
	eng            *sim.Engine
	clientToServer *sim.Link
	serverToClient *sim.Link
}

// NewWire returns a wire with the given one-way propagation delay
// (back-to-back DAC cables are a few hundred nanoseconds end to end).
func NewWire(eng *sim.Engine, propagation sim.Duration) *Wire {
	return NewWireRate(eng, LineRateBits, propagation)
}

// NewWireRate returns a wire whose two directions serialize at rateBits
// bits/s instead of the default 100 GbE line rate (rateBits <= 0 keeps
// the default) — slower optics or a rate-limited testbed port.
func NewWireRate(eng *sim.Engine, rateBits float64, propagation sim.Duration) *Wire {
	if rateBits <= 0 {
		rateBits = LineRateBits
	}
	return &Wire{
		eng:            eng,
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

// Observe installs a telemetry observer on both directions, named
// "wire/c2s" (client→server) and "wire/s2c" (server→client).
func (w *Wire) Observe(obs sim.LinkObserver) {
	w.clientToServer.Observe("wire/c2s", obs)
	w.serverToClient.Observe("wire/s2c", obs)
}

// ServerDirBacklog returns the client→server serialization backlog.
func (w *Wire) ServerDirBacklog() sim.Duration { return w.clientToServer.Backlog() }

// ClientDirBacklog returns the server→client serialization backlog.
func (w *Wire) ClientDirBacklog() sim.Duration { return w.serverToClient.Backlog() }

// ServerDirBytes returns bytes sent toward the server.
func (w *Wire) ServerDirBytes() uint64 { return w.clientToServer.BytesSent() }
