package nic

import (
	"testing"

	"repro/internal/sim"
)

func TestWireFlapLosesFramesBothWays(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWireRate(eng, LineRateBits, 250*sim.Nanosecond)
	delivered := 0
	w.SetDown(true)
	if !w.Down() {
		t.Fatal("wire does not report down after SetDown(true)")
	}
	w.SendToServer(&Packet{Size: MTU}, func(*Packet) { delivered++ })
	w.SendToClient(&Packet{Size: 64}, func(*Packet) { delivered++ })
	eng.Run()
	if delivered != 0 || w.Lost() != 2 {
		t.Fatalf("flapped wire delivered=%d lost=%d, want 0/2", delivered, w.Lost())
	}
	w.SetDown(false)
	w.SendToServer(&Packet{Size: MTU}, func(*Packet) { delivered++ })
	eng.Run()
	if delivered != 1 {
		t.Fatalf("recovered wire delivered=%d, want 1", delivered)
	}
}

func TestWireRateCapDelaysDelivery(t *testing.T) {
	eng := sim.NewEngine()
	w := NewWireRate(eng, LineRateBits, 0)
	var at sim.Time
	// 1226 B frame + 24 B overhead = 1250 B = 100 ns at line rate.
	w.SendToServer(&Packet{Size: 1226}, func(*Packet) { at = eng.Now() })
	eng.Run()
	if at != 100 {
		t.Fatalf("full-rate delivery at %v, want 100ns", at)
	}
	w.SetRateFactor(0.25)
	base := eng.Now()
	w.SendToServer(&Packet{Size: 1226}, func(*Packet) { at = eng.Now() })
	eng.Run()
	if got := at.Sub(base); got != 400 {
		t.Fatalf("quarter-rate delivery took %v, want 400ns", got)
	}
}
