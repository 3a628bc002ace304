// Command snicsim runs a single benchmark on a chosen platform — either
// at its maximum sustainable throughput (the default) or at a fixed
// offered rate — and prints the full measurement. With -fleet it
// instead simulates a whole datacenter fleet on the scaled diurnal
// trace (DESIGN.md S22).
//
// Usage:
//
//	snicsim -func rem -variant file_image -platform snic-accel
//	snicsim -func udp-echo -variant 64B -platform host-cpu -rate 0.4
//	snicsim -fleet nic-host=16,snic-cpu=12,snic-accel=8 -policy slo-aware
//	snicsim -fleet nic-host=4 -scale 2.5 -slo 500 -j 8
//	snicsim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/snic"
)

func main() {
	fn := flag.String("func", "udp-echo", "function name")
	variant := flag.String("variant", "64B", "variant name")
	platform := flag.String("platform", "host-cpu", "host-cpu, snic-cpu, or snic-accel")
	rate := flag.Float64("rate", 0, "fixed offered rate in Gb/s (0 = find max sustainable)")
	requests := flag.Int("requests", 24000, "requests per run")
	list := flag.Bool("list", false, "list benchmarks and exit")
	fleetMix := flag.String("fleet", "", "fleet mode: server mix, e.g. nic-host=16,snic-cpu=12,snic-accel=8")
	policy := flag.String("policy", "slo-aware", "fleet dispatch policy: round-robin, least-outstanding, slo-aware, advisor")
	scale := flag.Float64("scale", 0, "fleet trace mean-rate scale factor (0 = one per-server share per server)")
	slo := flag.Float64("slo", 300, "fleet SLO target on p99 latency (µs)")
	par := flag.Int("j", 0, "fleet parallelism (0 = GOMAXPROCS)")
	seed := flag.Uint64("seed", 42, "fleet base seed")
	flag.Parse()

	if *list {
		for _, b := range snic.Benchmarks() {
			fmt.Println(snic.Describe(b))
		}
		return
	}

	if *fleetMix != "" {
		if err := runFleet(*fleetMix, *policy, *scale, *slo, *par, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "snicsim: %v\n", err)
			os.Exit(2)
		}
		return
	}

	b, err := snic.LookupBenchmark(*fn, *variant)
	if err != nil {
		fmt.Fprintf(os.Stderr, "snicsim: %v\n", err)
		os.Exit(2)
	}
	plat := snic.Platform(*platform)
	if !b.HasPlatform(plat) {
		fmt.Fprintf(os.Stderr, "snicsim: %s does not run on %s (platforms: %v)\n", b.Name(), plat, b.Platforms)
		os.Exit(2)
	}

	tb := snic.NewTestbed()
	var m snic.Measurement
	if *rate > 0 {
		w := snic.Workload{Kind: snic.WorkloadPoint, Config: b, Platform: plat, Opts: core.DefaultRunOpts()}
		if *requests > 0 {
			w.Opts.Requests = *requests
		}
		w.Opts.OfferedGbps = *rate
		res, err := tb.Execute(w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snicsim: %v\n", err)
			os.Exit(2)
		}
		m = *res.Point
	} else {
		m = tb.MaxThroughput(b, plat)
	}

	fmt.Printf("benchmark:   %s\n", snic.Describe(b))
	fmt.Printf("platform:    %s\n", m.Platform)
	if m.OfferedGbps > 0 {
		fmt.Printf("offered:     %.3f Gb/s\n", m.OfferedGbps)
	}
	fmt.Printf("throughput:  %.3f Gb/s (%.0f ops/s, %d ops measured)\n", m.TputGbps, m.TputOps, m.Ops)
	fmt.Printf("latency:     p50 %v  p99 %v  p99.9 %v  mean %v\n",
		m.Latency.P50, m.Latency.P99, m.Latency.P999, m.Latency.Mean)
	fmt.Printf("power:       server %.1f W (BMC domain), SNIC %.2f W (Yocto-Watt domain)\n",
		m.ServerPowerW, m.SNICPowerW)
	fmt.Printf("efficiency:  %.3g bits/J system-wide\n", m.EffBitsPerJoule)
	fmt.Printf("utilization: host %.2f  snic %.2f  engine %.2f\n", m.HostUtil, m.SNICUtil, m.EngineUtil)
}

// parseFleetMix turns "nic-host=16,snic-cpu=12,snic-accel=8" into the
// fleet's server classes.
func parseFleetMix(spec string) ([]snic.FleetClass, error) {
	var classes []snic.FleetClass
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("fleet mix entry %q: want class=count", part)
		}
		n, err := strconv.Atoi(kv[1])
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("fleet mix entry %q: count must be a positive integer", part)
		}
		switch kv[0] {
		case "nic-host":
			classes = append(classes, snic.NICHosts(n))
		case "snic-cpu":
			classes = append(classes, snic.SNICCPUs(n))
		case "snic-accel":
			classes = append(classes, snic.SNICAccels(n))
		default:
			return nil, fmt.Errorf("fleet mix entry %q: unknown class (want nic-host, snic-cpu, or snic-accel)", part)
		}
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("empty fleet mix")
	}
	return classes, nil
}

func runFleet(mix, policy string, scale, sloUS float64, par int, seed uint64) error {
	classes, err := parseFleetMix(mix)
	if err != nil {
		return err
	}
	servers := 0
	for _, c := range classes {
		servers += c.Count
	}
	if scale <= 0 {
		scale = float64(servers)
	}
	if sloUS <= 0 {
		return fmt.Errorf("-slo must be > 0 µs")
	}

	var opts []snic.Option
	if par > 0 {
		opts = append(opts, snic.WithParallelism(par))
	}
	tb := snic.NewTestbed(opts...)
	tr := snic.HyperscalerTrace().Subsample(4).Scale(scale).Compress(400 * snic.Microsecond)
	res, err := tb.RunFleet(snic.FleetConfig{
		Classes: classes,
		Policy:  snic.FleetPolicy(policy),
		Trace:   tr,
		SLO:     snic.Duration(sloUS * float64(snic.Microsecond)),
		Seed:    seed,
	})
	if err != nil {
		return err
	}
	snic.RenderFleet(os.Stdout, []snic.FleetResult{res})
	fmt.Println()
	snic.RenderFleetServers(os.Stdout, res)
	return nil
}
