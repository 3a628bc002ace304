package tco

import (
	"math"
	"testing"
)

func TestFleetTCOMatchesAnalyzeHomogeneous(t *testing.T) {
	m := PaperCostModel()
	in := PaperTable5Inputs()["fio"]
	row := m.Analyze("fio", in[0], in[1])

	snicFleet := make([]FleetServer, row.ServersSNIC)
	for i := range snicFleet {
		snicFleet[i] = FleetServer{SNIC: true, PowerW: in[0].PowerW}
	}
	nicFleet := make([]FleetServer, row.ServersNIC)
	for i := range nicFleet {
		nicFleet[i] = FleetServer{SNIC: false, PowerW: in[1].PowerW}
	}
	if got := m.FleetTCO(snicFleet); math.Abs(got-row.TCOSNIC) > 1e-6 {
		t.Fatalf("SNIC fleet TCO %v != Analyze %v", got, row.TCOSNIC)
	}
	if got := m.FleetTCO(nicFleet); math.Abs(got-row.TCONIC) > 1e-6 {
		t.Fatalf("NIC fleet TCO %v != Analyze %v", got, row.TCONIC)
	}
}

func TestFleetTCOMixedFleet(t *testing.T) {
	m := PaperCostModel()
	fleet := []FleetServer{
		{SNIC: true, PowerW: 255},
		{SNIC: false, PowerW: 268},
	}
	kwh := func(w float64) float64 { return w * 24 * 365 * m.Years / 1000 }
	want := (ServerWithSNICUSD + kwh(255)*m.PowerUSDPerKWh) +
		(ServerWithNICUSD + kwh(268)*m.PowerUSDPerKWh)
	if got := m.FleetTCO(fleet); math.Abs(got-want) > 1e-6 {
		t.Fatalf("mixed fleet TCO %v != %v", got, want)
	}
	if m.FleetTCO(nil) != 0 {
		t.Fatalf("empty fleet should cost 0")
	}
}
