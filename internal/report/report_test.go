package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tco"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("title", "a", "bbbb")
	tb.Add("x", "y")
	tb.Add("longer", "z")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "longer") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Title + header + rule + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: header and rows share the separator offset.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("header and rule widths differ:\n%s", out)
	}
}

func TestTableBadRowPanics(t *testing.T) {
	tb := NewTable("t", "one")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong cell count did not panic")
		}
	}()
	tb.Add("a", "b")
}

func sampleRow(cat core.Category) core.Fig4Row {
	cfg, err := core.Lookup("udp-echo", "64B")
	if err != nil {
		panic(err)
	}
	return core.Fig4Row{
		Config:    cfg,
		Host:      core.Measurement{TputGbps: 1, Latency: stats.Summary{P99: 100 * sim.Microsecond}, ServerPowerW: 340},
		SNIC:      core.Measurement{TputGbps: 0.14, Latency: stats.Summary{P99: 140 * sim.Microsecond}, ServerPowerW: 255},
		TputRatio: 0.14, P99Ratio: 1.4, EffRatio: 0.19,
	}
}

func TestFig4Render(t *testing.T) {
	var sb strings.Builder
	Fig4(&sb, []core.Fig4Row{sampleRow(core.CategoryMicro)})
	out := sb.String()
	for _, want := range []string{"Fig. 4", "udp-echo/64B", "0.14x", "1.40x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Render(t *testing.T) {
	var sb strings.Builder
	Fig6(&sb, []core.Fig4Row{sampleRow(core.CategoryMicro)})
	if !strings.Contains(sb.String(), "0.19x") {
		t.Fatalf("Fig6 missing efficiency ratio:\n%s", sb.String())
	}
}

func TestFig7Render(t *testing.T) {
	ts := &stats.TimeSeries{}
	for i := 0; i < 100; i++ {
		ts.Add(sim.Time(i)*sim.Time(sim.Second), float64(i%10))
	}
	var sb strings.Builder
	Fig7(&sb, ts, 40)
	out := sb.String()
	if !strings.Contains(out, "Fig. 7") || !strings.Contains(out, "mean") {
		t.Fatalf("Fig7 header missing:\n%s", out)
	}
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Fatal("sparkline missing")
	}
}

func TestTable4Render(t *testing.T) {
	rows := []core.TraceReplayResult{
		{Platform: core.HostCPU, AvgTputGbps: 0.76, P99: 5070 * sim.Nanosecond, AvgPowerW: 278.3},
		{Platform: core.SNICAccel, AvgTputGbps: 0.76, P99: 17430 * sim.Nanosecond, AvgPowerW: 254.5},
	}
	var sb strings.Builder
	Table4(&sb, rows)
	out := sb.String()
	for _, want := range []string{"0.76", "5.07", "17.43", "278.30", "254.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table4 missing %q:\n%s", want, out)
		}
	}
}

func TestTable5Render(t *testing.T) {
	var sb strings.Builder
	Table5(&sb, tco.PaperTable5())
	out := sb.String()
	// REM's savings renders as -2.6% under full-precision arithmetic
	// (the paper's own rounding gives -2.5%); match the sign and leading
	// digits only.
	for _, want := range []string{"Compress", "35", "70.7%", "-2."} {
		if !strings.Contains(out, want) {
			t.Errorf("Table5 missing %q:\n%s", want, out)
		}
	}
}

func TestFig5Render(t *testing.T) {
	p := core.Fig5Point{OfferedGbps: 40, Curves: map[string]core.Measurement{
		"host/file_image":      {TputGbps: 39, Latency: stats.Summary{P99: 40 * sim.Microsecond}},
		"host/file_executable": {TputGbps: 40, Latency: stats.Summary{P99: 5 * sim.Microsecond}},
		"accel":                {TputGbps: 40, Latency: stats.Summary{P99: 25 * sim.Microsecond}},
	}}
	var sb strings.Builder
	Fig5(&sb, []core.Fig5Point{p})
	if !strings.Contains(sb.String(), "Fig. 5") || !strings.Contains(sb.String(), "40") {
		t.Fatalf("Fig5 render broken:\n%s", sb.String())
	}
}

func TestFaultsRenderSensorDropoutFootnote(t *testing.T) {
	base := core.FaultResult{Scenario: "baseline", MinDeliveredFrac: 1}
	clean := core.FaultResult{Scenario: "accel-crash", MinDeliveredFrac: 1}
	gapped := core.FaultResult{Scenario: "sensor-gap", MinDeliveredFrac: 1,
		BMCMissedSamples: 2, YoctoMissedSamples: 7}

	var sb strings.Builder
	Faults(&sb, base, []core.FaultResult{clean, gapped})
	out := sb.String()
	if !strings.Contains(out, "sensor-gap: missed 2 BMC + 7 Yocto-Watt samples") {
		t.Fatalf("dropout footnote missing:\n%s", out)
	}
	if strings.Contains(out, "accel-crash: missed") {
		t.Fatalf("clean scenario must not appear in the footnote:\n%s", out)
	}

	// No dropouts anywhere: no footnote at all.
	sb.Reset()
	Faults(&sb, base, []core.FaultResult{clean})
	if strings.Contains(sb.String(), "missed") {
		t.Fatalf("unexpected footnote without dropouts:\n%s", sb.String())
	}
}
