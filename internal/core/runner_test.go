package core

import (
	"testing"

	"repro/internal/sim"
)

func TestRunProducesThroughputAndLatency(t *testing.T) {
	cfg, _ := Lookup("udp-echo", "1024B")
	r := NewRunner()
	opts := probeOpts(1)
	opts.OfferedGbps = 1.0
	m := r.Run(cfg, HostCPU, opts)
	if m.Ops == 0 {
		t.Fatal("no operations measured")
	}
	if m.TputGbps < 0.9 || m.TputGbps > 1.1 {
		t.Fatalf("underloaded run tput = %v, want ~1.0 (offered)", m.TputGbps)
	}
	if m.Latency.P99 <= 0 || m.Latency.P50 > m.Latency.P99 {
		t.Fatalf("latency summary broken: %+v", m.Latency)
	}
	if m.ServerPowerW < 252 {
		t.Fatalf("server power %v below idle floor", m.ServerPowerW)
	}
}

func TestRunDeterministicForSameSeed(t *testing.T) {
	cfg, _ := Lookup("nat", "10K")
	r := NewRunner()
	opts := probeOpts(9)
	opts.OfferedGbps = 0.5
	a := r.Run(cfg, HostCPU, opts)
	b := r.Run(cfg, HostCPU, opts)
	if a.TputGbps != b.TputGbps || a.Latency.P99 != b.Latency.P99 || a.ServerPowerW != b.ServerPowerW {
		t.Fatalf("same-seed runs differ: %v vs %v", a, b)
	}
}

func TestRunSeedChangesOutcomeSlightly(t *testing.T) {
	cfg, _ := Lookup("nat", "10K")
	r := NewRunner()
	o1 := probeOpts(1)
	o1.OfferedGbps = 0.5
	o2 := probeOpts(2)
	o2.OfferedGbps = 0.5
	a := r.Run(cfg, HostCPU, o1)
	b := r.Run(cfg, HostCPU, o2)
	if a.Latency.Mean == b.Latency.Mean {
		t.Fatal("different seeds produced identical mean latency — RNG not threaded through")
	}
}

func TestOverloadSheds(t *testing.T) {
	cfg, _ := Lookup("udp-echo", "64B")
	r := NewRunner()
	opts := probeOpts(3)
	opts.OfferedGbps = 2.0 // ~4× host capacity
	m := r.Run(cfg, HostCPU, opts)
	if m.DeliveredFrac > 0.5 {
		t.Fatalf("4x overload delivered %v of offered, want far less", m.DeliveredFrac)
	}
}

func TestRunWrongPlatformPanics(t *testing.T) {
	cfg, _ := Lookup("redis", "workload_a") // no accelerator platform
	defer func() {
		if recover() == nil {
			t.Fatal("running redis on the accelerator did not panic")
		}
	}()
	NewRunner().Run(cfg, SNICAccel, probeOpts(1))
}

func TestLocalModeSaturates(t *testing.T) {
	cfg, _ := Lookup("compress", "app")
	r := NewRunner()
	opts := DefaultRunOpts()
	opts.Requests = 4000
	m := r.Run(cfg, HostCPU, opts)
	// Host ISA-L deflate at 14.6 Gb/s on one core.
	if m.TputGbps < 13 || m.TputGbps > 16 {
		t.Fatalf("host compress tput = %v, want ~14.6", m.TputGbps)
	}
	a := r.Run(cfg, SNICAccel, opts)
	if a.TputGbps < 45 || a.TputGbps > 56 {
		t.Fatalf("accel compress tput = %v, want ~52", a.TputGbps)
	}
}

func TestStorageModeIsWireBound(t *testing.T) {
	cfg, _ := Lookup("fio", "read")
	r := NewRunner()
	host := r.MaxThroughput(cfg, HostCPU)
	snic := r.MaxThroughput(cfg, SNICCPU)
	ratio := snic.TputGbps / host.TputGbps
	if ratio < 0.95 || ratio > 1.06 {
		t.Fatalf("fio tput ratio = %v, want ~1.0 (paper: almost the same)", ratio)
	}
	if host.TputGbps < 60 {
		t.Fatalf("fio host tput = %v, want near wire limit", host.TputGbps)
	}
}

func TestSwitchedModeDeliversOfferedLoad(t *testing.T) {
	cfg, _ := Lookup("ovs", "load10")
	r := NewRunner()
	m := r.MaxThroughput(cfg, HostCPU)
	if m.TputGbps < 9 || m.TputGbps > 10.5 {
		t.Fatalf("OvS 10%% load tput = %v, want ~9.8", m.TputGbps)
	}
	if m.Latency.P99 > 5*sim.Microsecond {
		t.Fatalf("eSwitch-forwarded p99 = %v, want a few µs", m.Latency.P99)
	}
}

func TestMaxThroughputFindsKnee(t *testing.T) {
	cfg, _ := Lookup("udp-echo", "64B")
	r := NewRunner()
	m := r.MaxThroughput(cfg, HostCPU)
	// Host UDP 64B capacity ≈ 0.53 Gb/s; knee should land at 60–100%.
	if m.TputGbps < 0.3 || m.TputGbps > 0.56 {
		t.Fatalf("knee = %v Gb/s, want 0.3–0.56", m.TputGbps)
	}
	if m.DeliveredFrac < 0.9 {
		t.Fatalf("knee point not sustainable: delivered %v", m.DeliveredFrac)
	}
}

func TestDPDKPollingPowersCoresEvenWhenIdle(t *testing.T) {
	// The Table 4 phenomenon: a DPDK host run at trivial load still
	// burns the polling cores' power.
	cfg, _ := Lookup("rem", "file_executable")
	r := NewRunner()
	opts := probeOpts(5)
	opts.OfferedGbps = 0.5 // trivial load
	m := r.Run(cfg, HostCPU, opts)
	// 8 polling cores: 252 idle + ~105 CPU + misc.
	if m.ServerPowerW < 360 {
		t.Fatalf("DPDK host power at idle load = %v W, want > 360 (polling)", m.ServerPowerW)
	}
	// Same load served by the SNIC accelerator barely moves the needle.
	a := r.Run(cfg, SNICAccel, opts)
	if a.ServerPowerW > 262 {
		t.Fatalf("SNIC-served power = %v W, want ~255", a.ServerPowerW)
	}
}

func TestKernelStackHostPowerScalesWithLoad(t *testing.T) {
	cfg, _ := Lookup("udp-echo", "1024B")
	r := NewRunner()
	lo := probeOpts(1)
	lo.OfferedGbps = 0.5
	hi := probeOpts(1)
	hi.OfferedGbps = 5.0
	mLo := r.Run(cfg, HostCPU, lo)
	mHi := r.Run(cfg, HostCPU, hi)
	if mHi.ServerPowerW <= mLo.ServerPowerW {
		t.Fatalf("power did not scale with load: %v W at 0.5G vs %v W at 5G",
			mLo.ServerPowerW, mHi.ServerPowerW)
	}
}

func TestSNICPowerDomainIsolation(t *testing.T) {
	// Yocto-Watt domain: SNIC-served run raises SNIC power above idle
	// 29 W but stays within the 34.4 W envelope.
	cfg, _ := Lookup("snort", "file_image")
	r := NewRunner()
	opts := probeOpts(2)
	opts.OfferedGbps = 0.5
	m := r.Run(cfg, SNICCPU, opts)
	if m.SNICPowerW < 29 || m.SNICPowerW > 34.5 {
		t.Fatalf("SNIC power = %v W, want within [29, 34.4]", m.SNICPowerW)
	}
}

func TestEstimateCapacityOrdering(t *testing.T) {
	a := NewAdvisor()
	cfg, _ := Lookup("udp-echo", "64B")
	h := a.Predict(cfg, HostCPU).TputGbps
	s := a.Predict(cfg, SNICCPU).TputGbps
	if s >= h {
		t.Fatalf("SNIC capacity estimate %v must be below host %v for UDP", s, h)
	}
	big, _ := Lookup("udp-echo", "1024B")
	if a.Predict(big, HostCPU).TputGbps <= h {
		t.Fatal("1KB capacity in Gb/s must exceed 64B capacity")
	}
}

func TestMeasurementString(t *testing.T) {
	m := Measurement{Function: "x", Variant: "y", Platform: HostCPU, TputGbps: 1}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}
