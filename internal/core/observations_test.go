package core

import (
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// These tests assert the paper's five Key Observations as invariants of
// the calibrated testbed. They run full max-throughput searches, so they
// are skipped under -short.

func fig4Rows(t *testing.T, names ...[2]string) map[string]Fig4Row {
	t.Helper()
	if testing.Short() {
		t.Skip("observation tests run full searches")
	}
	r := NewRunner()
	out := map[string]Fig4Row{}
	for _, n := range names {
		cfg, err := Lookup(n[0], n[1])
		if err != nil {
			t.Fatal(err)
		}
		out[cfg.Name()] = r.fig4Row(cfg)
	}
	return out
}

func TestObservation1TCPUDPFavoursHost(t *testing.T) {
	// O1: the SNIC CPU delivers lower max throughput and higher p99 for
	// every TCP/UDP function, while RDMA microbenchmarks favour it.
	rows := fig4Rows(t,
		[2]string{"udp-echo", "64B"},
		[2]string{"redis", "workload_a"},
		[2]string{"nat", "10K"},
		[2]string{"rdma-perftest", "1KB"},
	)
	for _, name := range []string{"udp-echo/64B", "redis/workload_a", "nat/10K"} {
		row := rows[name]
		if row.TputRatio >= 1 {
			t.Errorf("O1 violated: %s SNIC tput ratio %.2f >= 1", name, row.TputRatio)
		}
		if row.P99Ratio <= 1 {
			t.Errorf("O1 violated: %s SNIC p99 ratio %.2f <= 1", name, row.P99Ratio)
		}
	}
	rdma := rows["rdma-perftest/1KB"]
	if rdma.TputRatio <= 1 {
		t.Errorf("O1 violated: RDMA SNIC tput ratio %.2f <= 1", rdma.TputRatio)
	}
	if rdma.P99Ratio >= 1 {
		t.Errorf("O1 violated: RDMA SNIC p99 ratio %.2f >= 1", rdma.P99Ratio)
	}
}

func TestObservation2ISAExtensionsBeatAccelerators(t *testing.T) {
	// O2: AES and RSA favour the host's ISA paths; SHA-1 and
	// Compression favour the engines.
	rows := fig4Rows(t,
		[2]string{"crypto", "aes"},
		[2]string{"crypto", "rsa"},
		[2]string{"crypto", "sha1"},
		[2]string{"compress", "app"},
	)
	if r := rows["crypto/aes"].TputRatio; r >= 1 {
		t.Errorf("O2: AES engine ratio %.2f, host ISA path should win", r)
	}
	if r := rows["crypto/rsa"].TputRatio; r >= 1 {
		t.Errorf("O2: RSA engine ratio %.2f, host should win", r)
	}
	if r := rows["crypto/sha1"].TputRatio; r <= 1.5 {
		t.Errorf("O2: SHA-1 engine ratio %.2f, engine should win ~1.9x", r)
	}
	if r := rows["compress/app"].TputRatio; r <= 3.0 {
		t.Errorf("O2: compression engine ratio %.2f, engine should win ~3.5x", r)
	}
}

func TestObservation3AcceleratorsBelowLineRate(t *testing.T) {
	// O3: REM and compression engines cap near 50 Gb/s, far below the
	// 100 Gb/s line rate — checked at the engine models and end to end.
	if testing.Short() {
		t.Skip("runs simulations")
	}
	tb := NewTestbed(DefaultTestbedConfig())
	if tb.REM.RateBits >= 100e9 || tb.Deflate.RateBits >= 100e9 {
		t.Fatal("engine raw rates must sit below line rate")
	}
	r := NewRunner()
	cfg := remMTU(trace.RuleSetExecutable)
	opts := DefaultRunOpts()
	opts.Requests = 12000
	opts.OfferedGbps = 90
	m := r.Run(cfg, SNICAccel, opts)
	if m.TputGbps > 55 {
		t.Fatalf("O3 violated: accelerator sustained %.1f Gb/s at 90 offered", m.TputGbps)
	}
	if m.TputGbps < 40 {
		t.Fatalf("accelerator cap %.1f Gb/s too low, want ~50", m.TputGbps)
	}
}

func TestObservation4WinnerFlipsWithInput(t *testing.T) {
	// O4: the REM winner flips between rule sets: accelerator wins
	// file_image, host wins file_executable.
	rows := fig4Rows(t,
		[2]string{"rem", "file_image"},
		[2]string{"rem", "file_executable"},
	)
	img := rows["rem/file_image"].TputRatio
	exe := rows["rem/file_executable"].TputRatio
	if img <= 1 {
		t.Errorf("O4: accelerator should win file_image, ratio %.2f", img)
	}
	if exe >= 1 {
		t.Errorf("O4: host should win file_executable, ratio %.2f", exe)
	}
}

func TestObservation5EfficiencyBounded(t *testing.T) {
	// O5: energy-efficiency gains exist but are bounded — the server's
	// idle power dominates. The SNIC side never exceeds the paper's
	// 3.8× and never collapses below ~0.1×; and for a function the SNIC
	// serves at LOWER throughput, efficiency gain can only come from
	// the power side, which idle power caps at server/(server-150.6).
	rows := fig4Rows(t,
		[2]string{"compress", "app"},
		[2]string{"udp-echo", "64B"},
		[2]string{"crypto", "sha1"},
	)
	rowNames := make([]string, 0, len(rows))
	for name := range rows {
		rowNames = append(rowNames, name)
	}
	sort.Strings(rowNames)
	for _, name := range rowNames {
		if r := rows[name]; r.EffRatio > 5.6 || r.EffRatio < 0.05 {
			t.Errorf("O5: %s efficiency ratio %.2f outside plausible band", name, r.EffRatio)
		}
	}
	if rows["compress/app"].EffRatio < 3.0 {
		t.Errorf("O5: compression efficiency ratio %.2f, want ~3.4-3.8", rows["compress/app"].EffRatio)
	}
	if rows["udp-echo/64B"].EffRatio > 1.0 {
		t.Errorf("O5: UDP echo efficiency ratio %.2f should be below 1", rows["udp-echo/64B"].EffRatio)
	}
}

func TestIdlePowerDominatesServerEfficiency(t *testing.T) {
	// The mechanism behind O5: even a fully idle server draws 252 W —
	// more than 62% of the busiest measurement.
	tb := NewTestbed(DefaultTestbedConfig())
	idle := float64(tb.Power.Server.Power())
	if idle != 252 {
		t.Fatalf("idle server = %v W, want 252", idle)
	}
	maxActive := idle + 150.6 + 5.4
	if idle/maxActive < 0.6 {
		t.Fatalf("idle fraction %v too small; the paper's O5 argument needs it dominant", idle/maxActive)
	}
}

func TestFig5Shape(t *testing.T) {
	// Fig. 5's qualitative shape: accel flat-caps ~50; host exe scales
	// past the accel; host img p99 explodes past ~40 while exe stays
	// tame at the same rate.
	if testing.Short() {
		t.Skip("runs a rate sweep")
	}
	r := NewRunner()
	points := r.Fig5([]float64{20, 40, 55, 70})
	byRate := map[float64]Fig5Point{}
	for _, p := range points {
		byRate[p.OfferedGbps] = p
	}
	// Accel caps: delivered at 70 offered must be ~50.
	if acc := byRate[70].Curves["accel"]; acc.TputGbps > 56 || acc.TputGbps < 42 {
		t.Errorf("accel at 70 offered delivered %.1f, want ~50", acc.TputGbps)
	}
	// Host exe keeps up at 70.
	if exe := byRate[70].Curves["host/file_executable"]; exe.TputGbps < 58 {
		t.Errorf("host exe at 70 offered delivered %.1f, want ~70", exe.TputGbps)
	}
	// Host img p99 blows up between 20 and 55.
	imgLo := byRate[20].Curves["host/file_image"].Latency.P99
	imgHi := byRate[55].Curves["host/file_image"].Latency.P99
	if float64(imgHi) < 8*float64(imgLo) {
		t.Errorf("host img p99 did not explode: %v -> %v", imgLo, imgHi)
	}
	// Host exe p99 stays tame at 55.
	exeHi := byRate[55].Curves["host/file_executable"].Latency.P99
	if exeHi > 30*sim.Microsecond {
		t.Errorf("host exe p99 at 55 = %v, want tame", exeHi)
	}
}

func TestTable4Reproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("trace replay")
	}
	r := NewRunner()
	rows := r.Table4()
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	host, accel := rows[0], rows[1]
	// Both sustain the trace's 0.76 Gb/s average.
	for _, row := range rows {
		if row.AvgTputGbps < 0.72 || row.AvgTputGbps > 0.80 {
			t.Errorf("%s avg tput = %v, want ~0.76", row.Platform, row.AvgTputGbps)
		}
	}
	// The accelerator's p99 is ~3x the host's (paper: 17.43 vs 5.07 µs).
	ratio := float64(accel.P99) / float64(host.P99)
	if ratio < 2 || ratio > 4.5 {
		t.Errorf("trace p99 ratio = %.2f, want ~3", ratio)
	}
	if host.P99 > 8*sim.Microsecond {
		t.Errorf("host trace p99 = %v, want ~5 µs", host.P99)
	}
	// Power: host pays polling cores (~278 W); SNIC stays near idle
	// (~254.5 W); saving is modest (paper: "only 9%" of active).
	if host.AvgPowerW < 270 || host.AvgPowerW > 292 {
		t.Errorf("host trace power = %v, want ~278", host.AvgPowerW)
	}
	if accel.AvgPowerW < 252 || accel.AvgPowerW > 258 {
		t.Errorf("SNIC trace power = %v, want ~254.5", accel.AvgPowerW)
	}
}

func TestLoadBalancerStrategy(t *testing.T) {
	// Strategy 3: under a bursty trace the accel-only configuration
	// violates a 300 µs SLO; the balancer holds it, and the hardware
	// balancer spills less traffic than the software one.
	if testing.Short() {
		t.Skip("trace replay")
	}
	r := NewRunner()
	tr := BurstyTrace(5, 72, 60, 6, 2*sim.Millisecond)
	accelOnly := runBalanced(t, r, LoadBalancer{SpillQueueThreshold: 1 << 30, HWAssist: true}, tr, 8, 1)
	sw := runBalanced(t, r, DefaultLoadBalancer(), tr, 8, 1)
	hw := runBalanced(t, r, HWLoadBalancer(), tr, 8, 1)

	const slo = 300 * sim.Microsecond
	if accelOnly.P99 <= slo {
		t.Fatalf("accel-only p99 %v unexpectedly meets the SLO; burst too weak", accelOnly.P99)
	}
	if sw.P99 > slo {
		t.Errorf("software balancer p99 %v violates SLO", sw.P99)
	}
	if hw.P99 > slo {
		t.Errorf("hardware balancer p99 %v violates SLO", hw.P99)
	}
	if hw.P99 >= sw.P99 {
		t.Errorf("hardware balancer (%v) should beat software (%v)", hw.P99, sw.P99)
	}
	if hw.HostShare >= sw.HostShare {
		t.Errorf("hardware balancer should spill less: hw %.2f vs sw %.2f", hw.HostShare, sw.HostShare)
	}
	if accelOnly.HostShare != 0 {
		t.Errorf("accel-only spilled %.2f to host", accelOnly.HostShare)
	}
}

func TestAdvisorAgreesWithObservations(t *testing.T) {
	a := NewAdvisor()
	// Relaxed SLO: the advisor should keep RDMA/accelerator-friendly
	// functions off the host and keep AES/RSA on it.
	for _, tc := range []struct {
		fn, variant string
		wantHost    bool
	}{
		{"crypto", "aes", true},
		{"crypto", "rsa", true},
		{"crypto", "sha1", false},
		{"compress", "app", false},
		{"udp-echo", "64B", true},
		{"bm25", "1Kdocs", true},
	} {
		cfg, err := Lookup(tc.fn, tc.variant)
		if err != nil {
			t.Fatal(err)
		}
		rec := a.Advise(cfg, 0)
		isHost := rec.Chosen == HostCPU
		if isHost != tc.wantHost {
			t.Errorf("advisor chose %s for %s/%s, wantHost=%v (%s)",
				rec.Chosen, tc.fn, tc.variant, tc.wantHost, rec.Reason)
		}
	}
}

func TestAdvisorRespectsSLO(t *testing.T) {
	// For file_image (where the accelerator wins on throughput and
	// efficiency), a tight p99 SLO must still veto the batching
	// accelerator; a loose SLO frees the advisor to offload.
	a := NewAdvisor()
	cfg, _ := Lookup("rem", "file_image")
	tight := a.Advise(cfg, 10*sim.Microsecond)
	if tight.Chosen == SNICAccel {
		t.Errorf("10µs SLO should veto the accelerator (batch wait ~11µs): %v", tight)
	}
	loose := a.Advise(cfg, 10*sim.Millisecond)
	if loose.Chosen != SNICAccel {
		t.Errorf("loose SLO should offload file_image to the engine: chose %v (%s)", loose.Chosen, loose.Reason)
	}
	// For file_executable the host wins outright (Key Observation 4),
	// SLO or not.
	exe, _ := Lookup("rem", "file_executable")
	if rec := a.Advise(exe, 10*sim.Millisecond); rec.Chosen != HostCPU {
		t.Errorf("advisor should keep file_executable on the host: %v", rec)
	}
}

func TestAdvisorPredictionsPositive(t *testing.T) {
	a := NewAdvisor()
	for _, cfg := range Catalog() {
		for _, plat := range cfg.Platforms {
			p := a.Predict(cfg, plat)
			if p.TputGbps <= 0 || p.P99 <= 0 || p.ActivePowerW <= 0 {
				t.Errorf("%s on %s: degenerate prediction %+v", cfg.Name(), plat, p)
			}
		}
	}
}
