package power

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestIdleAnchorsMatchPaper(t *testing.T) {
	tb := NewTestbed(Signals{})
	if got := tb.Server.Power(); got != ServerIdleW {
		t.Fatalf("server idle = %v W, want %v (paper §4)", got, ServerIdleW)
	}
	if got := tb.SNIC.Power(); got != SNICIdleW {
		t.Fatalf("SNIC idle = %v W, want %v", got, SNICIdleW)
	}
}

func TestMaxActiveAnchorsMatchPaper(t *testing.T) {
	one := func() float64 { return 1 }
	// The paper's 150.6 W peak came from CPU-bound workloads that
	// saturate the cores at modest (~1/7) wire utilization.
	wire := func() float64 { return 1.0 / 7.0 }
	tb := NewTestbed(Signals{
		HostCPU: one, HostMemBW: one, SNICCPU: one, SNICEngines: one,
		WireUtil: wire,
	})
	serverActive := tb.Server.Power() - ServerIdleW
	if math.Abs(float64(serverActive-(ServerMaxActiveW+SNICMaxActiveW))) > 0.01 {
		t.Fatalf("server max active = %v W, want %v", serverActive, ServerMaxActiveW+SNICMaxActiveW)
	}
	if snicActive := tb.SNIC.Power() - SNICIdleW; math.Abs(float64(snicActive-SNICMaxActiveW)) > 0.01 {
		t.Fatalf("SNIC max active = %v W, want %v", snicActive, SNICMaxActiveW)
	}
}

func TestSNICNestedInServerDomain(t *testing.T) {
	// Raising only SNIC utilization must raise the server (BMC) reading
	// by the same amount: the BMC sees all PCIe devices.
	util := 0.0
	src := func() float64 { return util }
	tb := NewTestbed(Signals{SNICCPU: src})
	base := tb.Server.Power()
	util = 1.0
	delta := tb.Server.Power() - base
	if math.Abs(float64(delta-3.4)) > 0.01 {
		t.Fatalf("server delta = %v W for SNIC-only activity, want 3.4", delta)
	}
}

func TestLinearClamps(t *testing.T) {
	l := Linear{IdleW: 10, MaxActiveW: 100, Util: func() float64 { return 2.5 }}
	if l.Power() != 110 {
		t.Fatalf("overdriven util must clamp to max: %v", l.Power())
	}
	l.Util = func() float64 { return -1 }
	if l.Power() != 10 {
		t.Fatalf("negative util must clamp to idle: %v", l.Power())
	}
}

func TestBMCSensorRateAndQuantization(t *testing.T) {
	eng := sim.NewEngine()
	s := NewBMCSensor(eng, func() Watts { return 252.4 })
	s.Start(sim.Time(10 * sim.Second))
	eng.Run()
	if s.Trace.Len() != 10 {
		t.Fatalf("BMC took %d samples over 10 s, want 10 (1 Hz)", s.Trace.Len())
	}
	// ±1 W quantization: 252.4 reads as 252.
	if s.Trace.Values[0] != 252 {
		t.Fatalf("BMC reading = %v, want 252 (1 W quantum)", s.Trace.Values[0])
	}
}

func TestYoctoWattSensorRateAndResolution(t *testing.T) {
	eng := sim.NewEngine()
	s := NewYoctoWattSensor(eng, func() Watts { return 29.1234 })
	s.Start(sim.Time(sim.Second))
	eng.Run()
	if s.Trace.Len() != 10 {
		t.Fatalf("Yocto-Watt took %d samples over 1 s, want 10 (10 Hz)", s.Trace.Len())
	}
	// 2 mW quantum: 29.1234 -> 29.124.
	if math.Abs(s.Trace.Values[0]-29.124) > 1e-9 {
		t.Fatalf("Yocto-Watt reading = %v, want 29.124", s.Trace.Values[0])
	}
}

func TestSensorAverageTracksStep(t *testing.T) {
	eng := sim.NewEngine()
	cur := Watts(100)
	s := NewBMCSensor(eng, func() Watts { return cur })
	s.Start(sim.Time(20 * sim.Second))
	eng.At(sim.Time(10*sim.Second), func() { cur = 300 })
	eng.Run()
	avg := float64(s.Average())
	if avg < 180 || avg > 220 {
		t.Fatalf("average = %v, want ~200 for a 100→300 step at midpoint", avg)
	}
}

func TestSensorDoubleStartPanics(t *testing.T) {
	eng := sim.NewEngine()
	s := NewBMCSensor(eng, func() Watts { return 1 })
	s.Start(10)
	defer func() {
		if recover() == nil {
			t.Fatal("double start did not panic")
		}
	}()
	s.Start(10)
}

func TestYoctoVsBMCFidelity(t *testing.T) {
	// The paper: Yocto-Watt has 10× the sampling rate and 500× the
	// resolution of the BMC.
	eng := sim.NewEngine()
	b := NewBMCSensor(eng, nil)
	y := NewYoctoWattSensor(eng, nil)
	if r := float64(b.Period) / float64(y.Period); r != 10 {
		t.Errorf("rate ratio = %v, want 10", r)
	}
	if r := float64(b.Quantum) / float64(y.Quantum); r != 500 {
		t.Errorf("resolution ratio = %v, want 500", r)
	}
}
