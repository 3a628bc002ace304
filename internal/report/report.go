// Package report renders experiment results in the paper's shapes:
// Fig. 4-style normalized bars, Fig. 5 rate-sweep series, Fig. 6 power
// and efficiency columns, Fig. 7 rate traces, and the Table 4/Table 5
// layouts — all as plain text suitable for terminals and EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tco"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns an empty table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row; cells beyond the header count are dropped loudly.
func (t *Table) Add(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Fig4 renders the normalized throughput/p99 rows grouped by category.
func Fig4(w io.Writer, rows []core.Fig4Row) {
	byCat := map[core.Category][]core.Fig4Row{}
	var order []core.Category
	for _, r := range rows {
		if _, seen := byCat[r.Config.Category]; !seen {
			order = append(order, r.Config.Category)
		}
		byCat[r.Config.Category] = append(byCat[r.Config.Category], r)
	}
	fmt.Fprintln(w, "Fig. 4 — Max sustainable throughput and p99 latency of the SNIC")
	fmt.Fprintln(w, "processor, normalized to the host CPU (SNIC ÷ host)")
	for _, cat := range order {
		t := NewTable(fmt.Sprintf("\n[%s]", cat),
			"function/variant", "platform", "tput ratio", "p99 ratio",
			"host Gb/s", "host p99", "snic Gb/s", "snic p99")
		for _, r := range byCat[cat] {
			t.Add(
				r.Config.Name(),
				string(r.Config.SNICPlatform()),
				fmt.Sprintf("%.2fx", r.TputRatio),
				fmt.Sprintf("%.2fx", r.P99Ratio),
				fmt.Sprintf("%.2f", r.Host.TputGbps),
				r.Host.Latency.P99.String(),
				fmt.Sprintf("%.2f", r.SNIC.TputGbps),
				r.SNIC.Latency.P99.String(),
			)
		}
		t.Render(w)
	}
}

// Fig5 renders the REM rate sweep as aligned series.
func Fig5(w io.Writer, points []core.Fig5Point) {
	t := NewTable("Fig. 5 — REM throughput and p99 vs offered rate (MTU packets)",
		"offered Gb/s",
		"host-img Gb/s", "host-img p99",
		"host-exe Gb/s", "host-exe p99",
		"accel Gb/s", "accel p99")
	for _, p := range points {
		img := p.Curves["host/file_image"]
		exe := p.Curves["host/file_executable"]
		acc := p.Curves["accel"]
		t.Add(
			fmt.Sprintf("%.0f", p.OfferedGbps),
			fmt.Sprintf("%.1f", img.TputGbps), img.Latency.P99.String(),
			fmt.Sprintf("%.1f", exe.TputGbps), exe.Latency.P99.String(),
			fmt.Sprintf("%.1f", acc.TputGbps), acc.Latency.P99.String(),
		)
	}
	t.Render(w)
}

// Fig6 renders the power/efficiency columns.
func Fig6(w io.Writer, rows []core.Fig4Row) {
	t := NewTable("Fig. 6 — Average power and normalized energy efficiency",
		"function/variant",
		"host W", "host SNIC-W", "snic W", "snic SNIC-W",
		"eff ratio")
	for _, r := range rows {
		t.Add(
			r.Config.Name(),
			fmt.Sprintf("%.1f", r.Host.ServerPowerW),
			fmt.Sprintf("%.1f", r.Host.SNICPowerW),
			fmt.Sprintf("%.1f", r.SNIC.ServerPowerW),
			fmt.Sprintf("%.1f", r.SNIC.SNICPowerW),
			fmt.Sprintf("%.2fx", r.EffRatio),
		)
	}
	t.Render(w)
}

// Fig7 renders a rate trace as a coarse ASCII sparkline plus stats.
func Fig7(w io.Writer, series *stats.TimeSeries, maxPoints int) {
	ds := series.Downsample(maxPoints)
	max := ds.Max()
	fmt.Fprintf(w, "Fig. 7 — Network data rate over time (mean %.2f Gb/s, peak %.2f Gb/s)\n",
		series.Mean(), series.Max())
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, v := range ds.Values {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(glyphs)-1))
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		sb.WriteRune(glyphs[idx])
	}
	fmt.Fprintf(w, "  %s\n", sb.String())
}

// Table4 renders the trace-replay comparison.
func Table4(w io.Writer, rows []core.TraceReplayResult) {
	t := NewTable("Table 4 — REM on the hyperscaler trace",
		"metric", "host processing", "SNIC processing")
	var host, snic core.TraceReplayResult
	for _, r := range rows {
		if r.Platform == core.HostCPU {
			host = r
		} else {
			snic = r
		}
	}
	t.Add("Throughput (Gb/s)", fmt.Sprintf("%.2f", host.AvgTputGbps), fmt.Sprintf("%.2f", snic.AvgTputGbps))
	t.Add("p99 Latency (µs)", fmt.Sprintf("%.2f", host.P99.Micros()), fmt.Sprintf("%.2f", snic.P99.Micros()))
	t.Add("Average Power (W)", fmt.Sprintf("%.2f", host.AvgPowerW), fmt.Sprintf("%.2f", snic.AvgPowerW))
	t.Render(w)
}

// Faults renders the fault-scenario replay family: per scenario, the
// throughput dip, the p99 split around the fault window, recovery time
// and the request fates (retried / rescued / failed-over / dropped).
func Faults(w io.Writer, baseline core.FaultResult, rows []core.FaultResult) {
	t := NewTable("Fault scenarios — hyperscaler trace replay under injected faults",
		"scenario", "tput Gb/s", "dip", "p99 pre", "p99 fault", "p99 post",
		"recovery", "retries", "rescued", "failover", "dropped", "power W")
	add := func(r core.FaultResult) {
		t.Add(
			r.Scenario,
			fmt.Sprintf("%.2f", r.AvgTputGbps),
			fmt.Sprintf("%.0f%%", (1-r.MinDeliveredFrac)*100),
			r.P99Pre.String(), r.P99Fault.String(), r.P99Post.String(),
			r.RecoveryTime.String(),
			fmt.Sprintf("%d", r.Retries),
			fmt.Sprintf("%d", r.Rescued),
			fmt.Sprintf("%d", r.FailedOver),
			fmt.Sprintf("%d", r.Dropped),
			fmt.Sprintf("%.1f", r.AvgPowerW),
		)
	}
	add(baseline)
	for _, r := range rows {
		add(r)
	}
	t.Render(w)
	// Sensor dropouts make the power column untrustworthy for the gapped
	// window; say so instead of letting the average silently span the gap.
	missed := func(r core.FaultResult) uint64 { return r.BMCMissedSamples + r.YoctoMissedSamples }
	all := append([]core.FaultResult{baseline}, rows...)
	gapped := false
	for _, r := range all {
		if missed(r) > 0 {
			gapped = true
			break
		}
	}
	if gapped {
		fmt.Fprintln(w, "  note: power sensors dropped samples during replay; averages span the gaps:")
		for _, r := range all {
			if missed(r) > 0 {
				fmt.Fprintf(w, "    %s: missed %d BMC + %d Yocto-Watt samples\n",
					r.Scenario, r.BMCMissedSamples, r.YoctoMissedSamples)
			}
		}
	}
}

// Table5 renders the TCO analysis. The title and the TCO column name
// the rows' horizon (the first row's; 5 years when there is none).
func Table5(w io.Writer, rows []tco.Row) {
	years := tco.PaperCostModel().Years
	if len(rows) > 0 {
		years = rows[0].Years
	}
	t := NewTable(fmt.Sprintf("Table 5 — %g-year TCO analysis", years),
		"application", "fleet", "servers", "power/server (W)",
		"power use (kWh)", "power cost ($)", fmt.Sprintf("%g-year TCO ($)", years), "savings")
	for _, r := range rows {
		t.Add(r.Application, "SNIC",
			fmt.Sprintf("%d", r.ServersSNIC),
			fmt.Sprintf("%.0f", r.SNIC.PowerW),
			fmt.Sprintf("%.0f", r.KWhPerServerSNIC),
			fmt.Sprintf("%.0f", r.PowerCostPerServerSNIC),
			fmt.Sprintf("%.0f", r.TCOSNIC),
			fmt.Sprintf("%.1f%%", r.SavingsFrac*100))
		t.Add("", "NIC",
			fmt.Sprintf("%d", r.ServersNIC),
			fmt.Sprintf("%.0f", r.NIC.PowerW),
			fmt.Sprintf("%.0f", r.KWhPerServerNIC),
			fmt.Sprintf("%.0f", r.PowerCostPerServerNIC),
			fmt.Sprintf("%.0f", r.TCONIC),
			"")
	}
	t.Render(w)
}
