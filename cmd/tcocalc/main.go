// Command tcocalc runs the §5.2 TCO arithmetic for arbitrary fleet
// measurements, defaulting to the paper's parameters.
//
// Usage:
//
//	tcocalc                                    # reproduce Table 5
//	tcocalc -price 0.25 -years 3               # Table 5 at your price and horizon
//	tcocalc -app mine -snic-tput 2 -snic-w 255 -nic-tput 1 -nic-w 320
//	tcocalc -app mine ... -price 0.25 -years 3 # your electricity and horizon
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/tco"
	"repro/snic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tcocalc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "", "application name (empty = Table 5 from the paper's measurements)")
	snicTput := fs.Float64("snic-tput", 1, "per-server throughput of the SNIC fleet (any unit)")
	snicW := fs.Float64("snic-w", 255, "per-server power of the SNIC fleet (W)")
	nicTput := fs.Float64("nic-tput", 1, "per-server throughput of the NIC fleet (same unit)")
	nicW := fs.Float64("nic-w", 300, "per-server power of the NIC fleet (W)")
	price := fs.Float64("price", 0.162, "electricity price ($/kWh)")
	years := fs.Float64("years", 5, "server lifetime (years)")
	servers := fs.Int("servers", 10, "baseline SNIC fleet size")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	model, err := buildModel(*price, *years, *servers)
	if err != nil {
		fmt.Fprintf(stderr, "tcocalc: %v\n", err)
		return 2
	}
	if *app == "" {
		snic.RenderTable5(stdout, model.Table5())
		return 0
	}
	row := model.Analyze(*app,
		tco.AppMeasurement{ThroughputGbps: *snicTput, PowerW: *snicW},
		tco.AppMeasurement{ThroughputGbps: *nicTput, PowerW: *nicW})
	snic.RenderTable5(stdout, []tco.Row{row})
	fmt.Fprintf(stdout, "\n%v\n", row)
	return 0
}

// buildModel applies the command-line knobs to the paper's cost model,
// rejecting non-physical values.
func buildModel(priceUSDPerKWh, years float64, servers int) (tco.CostModel, error) {
	if priceUSDPerKWh <= 0 {
		return tco.CostModel{}, fmt.Errorf("electricity price must be > 0 $/kWh, got %v", priceUSDPerKWh)
	}
	if years <= 0 {
		return tco.CostModel{}, fmt.Errorf("lifetime must be > 0 years, got %v", years)
	}
	if servers <= 0 {
		return tco.CostModel{}, fmt.Errorf("baseline fleet must have > 0 servers, got %d", servers)
	}
	m := tco.PaperCostModel()
	m.PowerUSDPerKWh = priceUSDPerKWh
	m.Years = years
	m.BaselineServers = servers
	return m, nil
}
