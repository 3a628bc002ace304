package tco

import (
	"math"
	"testing"
	"testing/quick"
)

// TestPaperTable5Reproduction checks our arithmetic against every number
// in the published Table 5.
func TestPaperTable5Reproduction(t *testing.T) {
	rows := PaperTable5()
	byApp := map[string]Row{}
	for _, r := range rows {
		byApp[r.Application] = r
	}

	want := []struct {
		app                     string
		serversSNIC, serversNIC int
		kwhSNIC, kwhNIC         float64 // paper: power use per server
		costSNIC, costNIC       float64 // paper: power cost per server
		tcoSNIC, tcoNIC         float64
		savings                 float64 // percent
	}{
		{"fio", 10, 10, 11260, 15023, 1824, 2434, 99223, 101928, 2.7},
		{"OVS", 10, 10, 11178, 14349, 1811, 2325, 99088, 100835, 1.7},
		{"REM", 10, 10, 11147, 11743, 1806, 1902, 99038, 96613, -2.5},
		{"Compress", 10, 35, 11169, 11773, 1809, 1907, 99074, 338320, 70.7},
	}
	for _, w := range want {
		r, ok := byApp[w.app]
		if !ok {
			t.Fatalf("missing row %s", w.app)
		}
		if r.ServersSNIC != w.serversSNIC || r.ServersNIC != w.serversNIC {
			t.Errorf("%s servers = %d/%d, want %d/%d", w.app, r.ServersSNIC, r.ServersNIC, w.serversSNIC, w.serversNIC)
		}
		// kWh within 1% (the paper's table has its own rounding).
		checkRel(t, w.app+" kWh SNIC", r.KWhPerServerSNIC, w.kwhSNIC, 0.01)
		checkRel(t, w.app+" kWh NIC", r.KWhPerServerNIC, w.kwhNIC, 0.01)
		checkRel(t, w.app+" power cost SNIC", r.PowerCostPerServerSNIC, w.costSNIC, 0.01)
		checkRel(t, w.app+" power cost NIC", r.PowerCostPerServerNIC, w.costNIC, 0.01)
		checkRel(t, w.app+" TCO SNIC", r.TCOSNIC, w.tcoSNIC, 0.005)
		checkRel(t, w.app+" TCO NIC", r.TCONIC, w.tcoNIC, 0.005)
		if math.Abs(r.SavingsFrac*100-w.savings) > 0.25 {
			t.Errorf("%s savings = %.2f%%, want %.1f%%", w.app, r.SavingsFrac*100, w.savings)
		}
	}
}

func checkRel(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if want == 0 {
		return
	}
	if math.Abs(got-want)/math.Abs(want) > tol {
		t.Errorf("%s = %.1f, want %.1f", name, got, want)
	}
}

func TestCompressNeeds35NICServers(t *testing.T) {
	// The headline of Table 5: the accelerator's 3.5× compression
	// throughput means 35 plain-NIC servers replace 10 SNIC servers,
	// for a 70.7% TCO saving.
	m := PaperCostModel()
	r := m.Analyze("Compress", AppMeasurement{3.5, 255}, AppMeasurement{1, 269})
	if r.ServersNIC != 35 {
		t.Fatalf("NIC servers = %d, want 35", r.ServersNIC)
	}
	if r.SavingsFrac < 0.70 || r.SavingsFrac > 0.72 {
		t.Fatalf("savings = %v, want ~0.707", r.SavingsFrac)
	}
}

func TestREMTCOIsNegative(t *testing.T) {
	// The paper's cautionary result: for REM at trace rates the SNIC
	// fleet costs 2.5% MORE (hardware premium outweighs 13 W saved).
	rows := PaperTable5()
	for _, r := range rows {
		if r.Application == "REM" && r.SavingsFrac >= 0 {
			t.Fatalf("REM savings = %v, want negative", r.SavingsFrac)
		}
	}
}

func TestAnalyzeScalesWithPowerPrice(t *testing.T) {
	m := PaperCostModel()
	cheap := m.Analyze("x", AppMeasurement{1, 255}, AppMeasurement{1, 328})
	m.PowerUSDPerKWh *= 2
	dear := m.Analyze("x", AppMeasurement{1, 255}, AppMeasurement{1, 328})
	if dear.SavingsFrac <= cheap.SavingsFrac {
		t.Fatal("doubling electricity price must favour the lower-power fleet more")
	}
}

func TestAnalyzeEqualEverythingFavoursCheaperHardware(t *testing.T) {
	m := PaperCostModel()
	r := m.Analyze("x", AppMeasurement{1, 300}, AppMeasurement{1, 300})
	if r.SavingsFrac >= 0 {
		t.Fatal("identical power and throughput must favour the cheaper NIC fleet")
	}
}

// Property: NIC fleet size is the ceiling of the throughput ratio scaled
// by the baseline, and TCO components are consistent.
func TestAnalyzeConsistencyProperty(t *testing.T) {
	m := PaperCostModel()
	f := func(tputRatioPct uint8, pw1, pw2 uint8) bool {
		ratio := 0.25 + float64(tputRatioPct%100)/25 // 0.25..4.2
		snic := AppMeasurement{ThroughputGbps: ratio, PowerW: 200 + float64(pw1)}
		nic := AppMeasurement{ThroughputGbps: 1, PowerW: 200 + float64(pw2)}
		r := m.Analyze("p", snic, nic)
		wantServers := int(math.Ceil(10 * ratio))
		if r.ServersNIC != wantServers {
			return false
		}
		wantTCO := float64(r.ServersSNIC) * (ServerWithSNICUSD + r.PowerCostPerServerSNIC)
		return math.Abs(r.TCOSNIC-wantTCO) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeBadInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero throughput did not panic")
		}
	}()
	PaperCostModel().Analyze("x", AppMeasurement{0, 1}, AppMeasurement{1, 1})
}

func TestComponentPricesQuoted(t *testing.T) {
	// §5.2's component prices (the composite differs by $6 in the paper
	// itself; we carry the composites in the model and the components
	// as documentation).
	if ServerBareUSD != 6287 || BlueField2USD != 1817 || ConnectX6DxUSD != 1478 {
		t.Fatal("component prices must match §5.2")
	}
}
