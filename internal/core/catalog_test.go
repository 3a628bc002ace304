package core

import (
	"sort"
	"testing"

	"repro/internal/netstack"
)

func TestCatalogCoversTable3(t *testing.T) {
	// Table 3 lists ten benchmarks; §3.3 adds three microbenchmarks.
	wantFunctions := map[string][]string{
		"udp-echo":      {"64B", "1024B"},
		"dpdk-pingpong": {"64B", "1024B"},
		"rdma-perftest": {"1KB"},
		"redis":         {"workload_a", "workload_b", "workload_c"},
		"snort":         {"file_image", "file_flash", "file_executable"},
		"nat":           {"10K", "1M"},
		"bm25":          {"100docs", "1Kdocs"},
		"crypto":        {"aes", "rsa", "sha1"},
		"rem":           {"file_image", "file_flash", "file_executable"},
		"compress":      {"app", "txt"},
		"ovs":           {"load10", "load100"},
		"mica":          {"batch4", "batch32"},
		"fio":           {"read", "write"},
	}
	names := make([]string, 0, len(wantFunctions))
	for fn := range wantFunctions {
		names = append(names, fn)
	}
	sort.Strings(names)
	for _, fn := range names {
		for _, v := range wantFunctions[fn] {
			if _, err := Lookup(fn, v); err != nil {
				t.Errorf("catalog missing %s/%s: %v", fn, v, err)
			}
		}
	}
	functions := map[string]bool{}
	for _, c := range Catalog() {
		functions[c.Function] = true
	}
	if got := len(functions); got != len(wantFunctions) {
		t.Errorf("catalog has %d functions, want %d", got, len(wantFunctions))
	}
}

func TestCatalogStacksMatchTable3(t *testing.T) {
	wantStack := map[string]netstack.Kind{
		"redis": netstack.KindTCP,
		"snort": netstack.KindUDP,
		"nat":   netstack.KindUDP,
		"bm25":  netstack.KindUDP,
		"rem":   netstack.KindDPDK,
		"ovs":   netstack.KindDPDK,
		"mica":  netstack.KindRDMA,
		"fio":   netstack.KindRDMA,
	}
	for _, c := range Catalog() {
		if want, ok := wantStack[c.Function]; ok && c.Stack != want {
			t.Errorf("%s uses %s, Table 3 says %s", c.Name(), c.Stack, want)
		}
	}
}

func TestCatalogAcceleratedFunctionsHaveEngines(t *testing.T) {
	// Table 3: REM, Cryptography, Compression and OvS run on SNIC
	// hardware; the first three bind engines, OvS binds the eSwitch.
	for _, c := range Catalog() {
		switch c.Function {
		case "rem", "crypto", "compress":
			if !c.HasPlatform(SNICAccel) || c.Engine == EngineNone {
				t.Errorf("%s must bind an accelerator engine", c.Name())
			}
			if c.Category != CategoryAccelerated {
				t.Errorf("%s must be hardware-accelerated category", c.Name())
			}
		case "redis", "snort", "nat", "bm25", "mica", "fio":
			if c.HasPlatform(SNICAccel) {
				t.Errorf("%s has no accelerator in Table 3", c.Name())
			}
		}
	}
}

func TestSNICPlatformSelection(t *testing.T) {
	rem, _ := Lookup("rem", "file_image")
	if rem.SNICPlatform() != SNICAccel {
		t.Error("REM's Fig. 4 SNIC platform is the accelerator")
	}
	redis, _ := Lookup("redis", "workload_a")
	if redis.SNICPlatform() != SNICCPU {
		t.Error("Redis's SNIC platform is the Arm CPU")
	}
}

func TestSolvedFactorsArePositive(t *testing.T) {
	for _, c := range Catalog() {
		if c.SNICFactor <= 0 {
			t.Errorf("%s has non-positive SNICFactor %v", c.Name(), c.SNICFactor)
		}
	}
}

func TestSolverLandsOnTargetAnalytically(t *testing.T) {
	// For entries where the solver produced a non-clamped factor, the
	// model's capacity ratio must equal the target.
	a := NewAdvisor()
	for _, c := range Catalog() {
		if c.Mode != ModeNetServe || c.WantTputRatio == 0 || c.SNICFactor <= 0.051 {
			continue
		}
		if c.Function == "dpdk-pingpong" || c.Function == "rem" {
			continue // manual factors / accel comparisons
		}
		got := a.Predict(c, SNICCPU).TputGbps / a.Predict(c, HostCPU).TputGbps
		if got < c.WantTputRatio*0.98 || got > c.WantTputRatio*1.02 {
			t.Errorf("%s: analytic ratio %.3f, want %.3f", c.Name(), got, c.WantTputRatio)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope", "x"); err == nil {
		t.Fatal("unknown lookup must error")
	}
}

func TestCatalogTargetsWithinPaperRanges(t *testing.T) {
	// Every target must sit inside the paper's global envelopes:
	// throughput 0.1–3.5×, p99 0.1–13.8×.
	for _, c := range Catalog() {
		if c.WantTputRatio > 0 && (c.WantTputRatio < 0.1 || c.WantTputRatio > 3.51) {
			t.Errorf("%s tput target %.3f outside paper range 0.1–3.5", c.Name(), c.WantTputRatio)
		}
		if c.WantP99Ratio > 0 && (c.WantP99Ratio < 0.099 || c.WantP99Ratio > 13.81) {
			t.Errorf("%s p99 target %.2f outside paper range 0.1–13.8", c.Name(), c.WantP99Ratio)
		}
	}
}

func TestPaperRangeEndpointsPresent(t *testing.T) {
	// The paper's headline ranges must be realized by some entry:
	// 3.5× tput (Compression), ~0.1× tput (BM25-1K), 13.8× p99
	// (Compression app), ~0.1× p99 (REM file_image).
	var sawTputTop, sawTputBottom, sawP99Top, sawP99Bottom bool
	for _, c := range Catalog() {
		if c.WantTputRatio >= 3.49 {
			sawTputTop = true
		}
		if c.WantTputRatio > 0 && c.WantTputRatio <= 0.115 {
			sawTputBottom = true
		}
		if c.WantP99Ratio >= 13.79 {
			sawP99Top = true
		}
		if c.WantP99Ratio > 0 && c.WantP99Ratio <= 0.101 {
			sawP99Bottom = true
		}
	}
	if !sawTputTop || !sawTputBottom || !sawP99Top || !sawP99Bottom {
		t.Errorf("range endpoints missing: tput(top=%v bottom=%v) p99(top=%v bottom=%v)",
			sawTputTop, sawTputBottom, sawP99Top, sawP99Bottom)
	}
}
