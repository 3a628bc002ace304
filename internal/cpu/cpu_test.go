package cpu

import (
	"testing"

	"repro/internal/sim"
)

func TestSpecsMatchPaperTables(t *testing.T) {
	host := XeonGold6140()
	if host.BaseHz != 2.1e9 {
		t.Errorf("host pinned freq = %v, want 2.1 GHz (paper §3.1)", host.BaseHz)
	}
	if host.L3Bytes != 24750*1024 {
		t.Errorf("host LLC = %d, want 24.75 MB (Table 2)", host.L3Bytes)
	}
	snic := BlueField2Arm()
	if snic.Cores != 8 || snic.BaseHz != 2.0e9 {
		t.Errorf("SNIC CPU = %d cores @ %v, want 8 @ 2.0 GHz (Table 1)", snic.Cores, snic.BaseHz)
	}
	if snic.Arch != ArchArm || host.Arch != ArchX86 {
		t.Error("architectures wrong")
	}
	client := XeonE52640v3()
	if client.L3Bytes != 20*1024*1024 {
		t.Errorf("client LLC = %d, want 20 MB (Table 2)", client.L3Bytes)
	}
}

func TestPoolServiceTimeScalesWithIPCAndFreq(t *testing.T) {
	eng := sim.NewEngine()
	host := NewPool(eng, XeonGold6140(), 8)
	snic := NewPool(eng, BlueField2Arm(), 8)
	const cycles = 21000
	h := host.ServiceTime(cycles)
	s := snic.ServiceTime(cycles)
	// Same nominal cycles must take longer on the A72: lower IPC (0.55)
	// and lower frequency (2.0 vs 2.1 GHz).
	ratio := float64(s) / float64(h)
	want := (1 / 0.55) * (2.1 / 2.0)
	if ratio < want*0.99 || ratio > want*1.01 {
		t.Fatalf("SNIC/host service ratio = %v, want ~%v", ratio, want)
	}
}

func TestPoolParallelism(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPool(eng, BlueField2Arm(), 8)
	var done int
	var last sim.Time
	for i := 0; i < 16; i++ {
		p.ExecDuration(p.ServiceTime(2.0e9/1000), func(_, end sim.Time) { // 1 ms of work
			done++
			last = end
		})
	}
	eng.Run()
	if done != 16 {
		t.Fatalf("done = %d, want 16", done)
	}
	// 16 jobs of ~1.8ms effective (IPC 0.55) on 8 cores: two waves.
	wave := p.ServiceTime(2.0e9 / 1000)
	want := sim.Time(2 * wave)
	if last < want-sim.Time(sim.Microsecond) || last > want+sim.Time(sim.Microsecond) {
		t.Fatalf("16 jobs on 8 cores finished at %v, want ~%v", last, want)
	}
}

func TestPoolQueueCapacitySheds(t *testing.T) {
	eng := sim.NewEngine()
	p := NewPool(eng, BlueField2Arm(), 1)
	p.SetQueueCapacity(2)
	accepted := 0
	for i := 0; i < 10; i++ {
		if p.ExecDuration(p.ServiceTime(1e6), nil) {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("accepted = %d, want 3 (1 running + 2 queued)", accepted)
	}
	if p.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", p.Dropped())
	}
	eng.Run()
}

func TestPoolBadSizePanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("oversized pool did not panic")
		}
	}()
	NewPool(eng, BlueField2Arm(), 9) // A72 has only 8 cores
}
