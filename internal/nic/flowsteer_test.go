package nic

import (
	"testing"

	"repro/internal/sim"
)

// fakeFlowTable marks a fixed set of flows as resident and records the
// lookup sequence.
type fakeFlowTable struct {
	resident map[uint64]bool
	lookups  []uint64
}

func (f *fakeFlowTable) Lookup(flowID uint64, _ sim.Time) bool {
	f.lookups = append(f.lookups, flowID)
	return f.resident[flowID]
}

func TestFlowSteerSplitsFastAndSlow(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewESwitch(eng)
	tbl := &fakeFlowTable{resident: map[uint64]bool{7: true}}
	sw.Program(FlowSteer(eng, tbl, ToWire, ToSNICCPU))

	var fast, slow []uint64
	sw.ConnectSink(ToWire, sinkFunc(func(p *Packet) { fast = append(fast, p.Flow) }))
	sw.ConnectSink(ToSNICCPU, sinkFunc(func(p *Packet) { slow = append(slow, p.Flow) }))

	for _, fl := range []uint64{7, 9, 7} {
		sw.Ingress(&Packet{Seq: fl, Size: MTU, Flow: fl})
	}
	eng.Run()

	if len(fast) != 2 || fast[0] != 7 || fast[1] != 7 {
		t.Fatalf("resident flow should take the fast path: %v", fast)
	}
	if len(slow) != 1 || slow[0] != 9 {
		t.Fatalf("non-resident flow should take the slow path: %v", slow)
	}
	if len(tbl.lookups) != 3 {
		t.Fatalf("every ingress packet should consult the table: %v", tbl.lookups)
	}
}

// The fast path pays only the hardware match-action delay — no PCIe
// crossing — so it must deliver strictly earlier than a host-destined
// packet steered at the same instant.
func TestFastPathPaysOnlySwitchDelay(t *testing.T) {
	eng := sim.NewEngine()
	sw := NewESwitch(eng)
	tbl := &fakeFlowTable{resident: map[uint64]bool{1: true}}
	sw.Program(FlowSteer(eng, tbl, ToWire, ToHostCPU))

	var fastAt, slowAt sim.Time
	sw.ConnectSink(ToWire, sinkFunc(func(*Packet) { fastAt = eng.Now() }))
	sw.ConnectSink(ToHostCPU, sinkFunc(func(*Packet) { slowAt = eng.Now() }))

	sw.Ingress(&Packet{Seq: 1, Flow: 1, Size: MTU})
	sw.Ingress(&Packet{Seq: 2, Flow: 2, Size: MTU})
	eng.Run()

	if fastAt != sim.Time(0).Add(sw.SwitchDelay) {
		t.Fatalf("fast path delivered at %v, want switch delay %v", fastAt, sw.SwitchDelay)
	}
	if want := sim.Time(0).Add(sw.SwitchDelay + sw.HostExtraDelay); slowAt != want {
		t.Fatalf("host path delivered at %v, want %v", slowAt, want)
	}
}

func TestFlowSteerPanicsOnNilInputs(t *testing.T) {
	eng := sim.NewEngine()
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"nil engine", func() { FlowSteer(nil, &fakeFlowTable{}, ToWire, ToSNICCPU) }},
		{"nil table", func() { FlowSteer(eng, nil, ToWire, ToSNICCPU) }},
	} {
		name, fn := tc.name, tc.fn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
