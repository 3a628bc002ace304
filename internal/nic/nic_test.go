package nic

import (
	"testing"

	"repro/internal/sim"
)

// sinkFunc adapts a plain function to a Sink.
type sinkFunc func(*Packet)

func (f sinkFunc) HandleEvent(arg any) { f(arg.(*Packet)) }

func TestESwitchSteering(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewESwitch(eng)
	var toHost, toSNIC int
	sw.ConnectSink(ToHostCPU, sinkFunc(func(*Packet) { toHost++ }))
	sw.ConnectSink(ToSNICCPU, sinkFunc(func(*Packet) { toSNIC++ }))
	sw.Program(func(p *Packet) Destination {
		if p.Flow%2 == 0 {
			return ToHostCPU
		}
		return ToSNICCPU
	})
	for i := uint64(0); i < 10; i++ {
		sw.Ingress(&Packet{Flow: i, Size: 64})
	}
	eng.Run()
	if toHost != 5 || toSNIC != 5 {
		t.Fatalf("steered host=%d snic=%d, want 5/5", toHost, toSNIC)
	}
}

func TestESwitchHostPathCostsMore(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewESwitch(eng)
	var hostAt, snicAt sim.Time
	sw.ConnectSink(ToHostCPU, sinkFunc(func(*Packet) { hostAt = eng.Now() }))
	sw.ConnectSink(ToSNICCPU, sinkFunc(func(*Packet) { snicAt = eng.Now() }))
	sw.Program(func(p *Packet) Destination {
		if p.Flow == 0 {
			return ToHostCPU
		}
		return ToSNICCPU
	})
	sw.Ingress(&Packet{Flow: 0})
	sw.Ingress(&Packet{Flow: 1})
	eng.Run()
	if hostAt <= snicAt {
		t.Fatalf("host delivery (%v) must be slower than SNIC-local (%v): PCIe crossing", hostAt, snicAt)
	}
}

func TestESwitchDrop(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewESwitch(eng)
	delivered := 0
	for _, d := range []Destination{ToHostCPU, ToSNICCPU, ToAccelerator, ToWire} {
		sw.ConnectSink(d, sinkFunc(func(*Packet) { delivered++ }))
	}
	sw.Program(func(*Packet) Destination { return Drop })
	sw.Ingress(&Packet{})
	eng.Run()
	if delivered != 0 {
		t.Fatalf("dropped packet reached %d sinks", delivered)
	}
}

func TestESwitchUnconnectedSinkPanics(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewESwitch(eng)
	sw.Program(func(*Packet) Destination { return ToAccelerator })
	defer func() {
		if recover() == nil {
			t.Fatal("steering to unconnected destination did not panic")
		}
	}()
	sw.Ingress(&Packet{})
}

func TestWireLineRate(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWireRate(eng, LineRateBits, 200*sim.Nanosecond)
	received := 0
	// Blast MTU frames for 1 simulated millisecond.
	var send func()
	seq := uint64(0)
	send = func() {
		if eng.Now() >= sim.Time(sim.Millisecond) {
			return
		}
		seq++
		w.SendToServer(&Packet{Seq: seq, Size: MTU}, func(*Packet) { received++ })
		eng.After(sim.DurationOf(MTU+EthernetOverhead, LineRateBits), send)
	}
	eng.At(0, send)
	eng.Run()
	// Goodput at MTU: 1500/1524 × 100 Gb/s ≈ 98.4 Gb/s.
	gbps := float64(received) * MTU * 8 / 1e-3 / 1e9
	if gbps < 96 || gbps > 100 {
		t.Fatalf("MTU goodput = %.1f Gb/s, want ~98", gbps)
	}
}

func TestWireDirectionsIndependent(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWireRate(eng, LineRateBits, 0)
	var a, b sim.Time
	w.SendToServer(&Packet{Size: MTU}, func(*Packet) { a = eng.Now() })
	w.SendToClient(&Packet{Size: MTU}, func(*Packet) { b = eng.Now() })
	eng.Run()
	if a != b {
		t.Fatalf("full duplex broken: %v vs %v", a, b)
	}
}

func TestDestinationStrings(t *testing.T) {
	// Ordered slice, not a map: failure output stays stable run to run.
	for _, c := range []struct {
		d    Destination
		want string
	}{
		{ToHostCPU, "host-cpu"}, {ToSNICCPU, "snic-cpu"},
		{ToAccelerator, "snic-accel"}, {Drop, "drop"},
	} {
		if c.d.String() != c.want {
			t.Errorf("%d.String() = %q, want %q", int(c.d), c.d.String(), c.want)
		}
	}
}

func TestConnectRejectsUnknownDestination(t *testing.T) {
	sw := NewESwitch(sim.NewEngine())
	for _, d := range []Destination{-1, ToWire + 1, 99} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ConnectSink(%v) did not panic", d)
				}
			}()
			sw.ConnectSink(d, sinkFunc(func(*Packet) {}))
		}()
	}
}

// echoSink bounces every packet it receives back to the client, the
// shape of a server's request path: a pointer-receiver Sink and a
// return receiver bound once.
type echoSink struct {
	w        *Wire
	back     func(*Packet)
	returned int
}

func (s *echoSink) HandleEvent(arg any) { s.w.SendToClient(arg.(*Packet), s.back) }

func (s *echoSink) onReturn(*Packet) { s.returned++ }

// A warmed client → Wire → ESwitch → Sink → Wire → client round trip
// allocates nothing: frames carry the packet itself as their handler,
// the eSwitch schedules the sink directly, and the receivers are bound
// once up front.
func TestRoundTripZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWireRate(eng, LineRateBits, 200*sim.Nanosecond)
	sw := NewESwitch(eng)
	sink := &echoSink{w: w}
	sink.back = sink.onReturn
	sw.Program(func(p *Packet) Destination { return Destination(p.Flow % 2) })
	sw.ConnectSink(ToHostCPU, sink)
	sw.ConnectSink(ToSNICCPU, sink)
	ingress := sw.Ingress
	// A burst of four frames per round keeps a backlog on both links.
	var pkts [4]Packet
	for i := range pkts {
		pkts[i] = Packet{Seq: uint64(i), Flow: uint64(i), Size: MTU}
	}
	round := func() {
		for i := range pkts {
			w.SendToServer(&pkts[i], ingress)
		}
		eng.Run()
	}
	round() // warm the engine's event free list and the links' rings
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("round trip allocates %.2f times per burst, want 0", allocs)
	}
	if want := 4 * 102; sink.returned != want {
		t.Fatalf("%d packets returned, want %d", sink.returned, want)
	}
}
