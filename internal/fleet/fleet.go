// Package fleet simulates a datacenter of servers built from the
// single-server testbed models: a configurable mix of NIC-only hosts,
// SNIC-CPU servers and SNIC-accelerator servers behind a dispatcher
// with pluggable placement policies, driven by the diurnal hyperscaler
// trace scaled to fleet-level offered rates. It rolls the per-server
// measurements up into the quantities the paper's closing argument is
// really about — aggregate throughput, fleet p99 SLO attainment,
// utilization spread, energy, and 5-year TCO — and provisions fleets by
// searching for the minimum server count that meets an SLO (the
// generalization of Table 5's "how many NIC servers equal one SNIC
// server").
package fleet

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tco"
	"repro/internal/trace"
)

// Class is a homogeneous group of servers.
type Class struct {
	// Name labels the class in reports and seeds its servers' RNG
	// streams.
	Name string
	// Platform selects which single-server model the class runs on.
	Platform core.Platform
	// Count is how many servers the class contributes.
	Count int
}

// NICHosts, SNICCPUs and SNICAccels are the three standard classes.
func NICHosts(n int) Class   { return Class{Name: "nic-host", Platform: core.HostCPU, Count: n} }
func SNICCPUs(n int) Class   { return Class{Name: "snic-cpu", Platform: core.SNICCPU, Count: n} }
func SNICAccels(n int) Class { return Class{Name: "snic-accel", Platform: core.SNICAccel, Count: n} }

// Outage marks one server down for the trace intervals in
// [FromInterval, ToInterval).
type Outage struct {
	Server       int
	FromInterval int
	ToInterval   int
}

// Config describes one fleet run.
type Config struct {
	// Classes composes the fleet; server indices run through the
	// classes in order.
	Classes []Class
	// Policy selects the dispatcher.
	Policy Policy
	// Function/Variant pick the served workload from the catalog
	// (default: REM with the executable rule set, the paper's trace
	// workload).
	Function string
	Variant  string
	// Trace is the fleet-level offered load (scale the single-server
	// diurnal trace up with HyperscalerTrace.Scale).
	Trace *trace.HyperscalerTrace
	// SLO is the p99 latency target (default 300µs).
	SLO sim.Duration
	// SLOMargin is the per-server load headroom target the SLO-aware
	// and advisor policies fill to, as a fraction of estimated capacity
	// (default 0.85).
	SLOMargin float64
	// Seed shifts every server's RNG streams.
	Seed uint64
	// Outages inject per-server downtime.
	Outages []Outage
}

const (
	defaultSLO = 300 * sim.Microsecond
	// targetAttainment is the fraction of requests that must meet the
	// SLO for the fleet to pass.
	targetAttainment = 0.99
	defaultSLOMargin = 0.85
)

// Servers is the fleet size.
func (c *Config) Servers() int {
	n := 0
	for _, cl := range c.Classes {
		n += cl.Count
	}
	return n
}

// ClassOf maps a server index to its class.
func (c *Config) ClassOf(s int) Class {
	for _, cl := range c.Classes {
		if s < cl.Count {
			return cl
		}
		s -= cl.Count
	}
	panic(fmt.Sprintf("fleet: server %d out of range", s))
}

// ServerDown reports whether server s is down in trace interval i.
func (c *Config) ServerDown(s, i int) bool {
	for _, o := range c.Outages {
		if o.Server == s && i >= o.FromInterval && i < o.ToInterval {
			return true
		}
	}
	return false
}

func (c *Config) slo() sim.Duration {
	if c.SLO > 0 {
		return c.SLO
	}
	return defaultSLO
}

func (c *Config) sloMargin() float64 {
	if c.SLOMargin > 0 {
		return c.SLOMargin
	}
	return defaultSLOMargin
}

func (c *Config) function() (string, string) {
	if c.Function == "" {
		return "rem", string(trace.RuleSetExecutable)
	}
	return c.Function, c.Variant
}

// validate rejects configurations the run could only misreport.
func (c *Config) validate() error {
	if c.Servers() < 1 {
		return fmt.Errorf("fleet: need at least one server")
	}
	for _, cl := range c.Classes {
		if cl.Count < 0 {
			return fmt.Errorf("fleet: class %q has negative count", cl.Name)
		}
	}
	if c.Trace == nil || len(c.Trace.RatesGbps) == 0 {
		return fmt.Errorf("fleet: need a non-empty trace")
	}
	fn, variant := c.function()
	served, err := core.Lookup(fn, variant)
	if err != nil {
		return fmt.Errorf("fleet: %v", err)
	}
	// Fleet servers replay their share of the trace through the
	// net-serve path; the Table 5 provisioning sizes the other modes by
	// MaxThroughput instead.
	if served.Mode != core.ModeNetServe {
		return fmt.Errorf("fleet: %s is %q, not net-served", served.Name(), served.Mode)
	}
	n := c.Servers()
	for _, o := range c.Outages {
		if o.Server < 0 || o.Server >= n {
			return fmt.Errorf("fleet: outage for server %d in a %d-server fleet", o.Server, n)
		}
	}
	if c.Policy == "" {
		return fmt.Errorf("fleet: no dispatch policy")
	}
	return nil
}

// key serializes the fleet run identity; the group component of every
// server's run key derives from it.
func (c *Config) key() string {
	fn, variant := c.function()
	classes := ""
	for _, cl := range c.Classes {
		classes += fmt.Sprintf("%s/%s/%d,", cl.Name, cl.Platform, cl.Count)
	}
	return fmt.Sprintf("fleet|%s/%s|pol:%s|cl:%s|tr:%s|slo:%d|att:%g|margin:%g|seed:%d|out:%v",
		fn, variant, c.Policy, classes, core.TraceFingerprint(c.Trace),
		c.slo(), targetAttainment, c.sloMargin(), c.Seed, c.Outages)
}

// ServerResult is one server's share of a fleet run.
type ServerResult struct {
	Index    int
	Class    string
	Platform core.Platform

	OfferedGbps float64
	TputGbps    float64
	Util        float64
	PowerW      float64
	P99         sim.Duration
	Dropped     uint64
	Sent        uint64
	Completed   uint64
}

// Result is the fleet-level rollup.
type Result struct {
	Policy  Policy
	Servers int
	SLO     sim.Duration

	OfferedGbps   float64 // trace mean at fleet level
	AggTputGbps   float64 // sum of per-server achieved rates
	LostGbps      float64 // mean dispatch-level loss (dead-server traffic)
	DeliveredFrac float64

	Latency    stats.Summary // merged across all servers
	FleetP99   sim.Duration
	Attainment float64 // fraction of issued requests completed within SLO
	MeetsSLO   bool

	UtilMin, UtilMean, UtilMax float64

	PowerW             float64 // fleet total average draw
	AvgPowerPerServerW float64
	EnergyKWhPerDay    float64
	TCO5yrUSD          float64

	PerServer []ServerResult
}

// Run simulates the fleet: dispatch the trace across the servers, replay
// every server (one parallel worker per distinct server behaviour,
// merged in server order, so output is byte-identical at any
// parallelism), and roll the measurements up.
func Run(r *core.Runner, cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	fn, variant := cfg.function()
	workload := core.TraceWorkload(fn, variant)
	n := cfg.Servers()
	caps, scores := capacities(r, workload, &cfg)
	asg, err := Dispatch(&cfg, caps, scores)
	if err != nil {
		return Result{}, err
	}

	group := fmt.Sprintf("%016x", obs.DeriveRunID(cfg.key()))

	// Identical servers — same class (platform + seed) and same
	// assigned rate row — share one simulation. Under a symmetric
	// policy a homogeneous 1000-server fleet costs one replay.
	type item struct {
		plat  core.Platform
		rates []float64
		seed  uint64
		label string
	}
	var items []item
	itemIdx := make(map[string]int)
	srvItem := make([]int, n)
	for s := 0; s < n; s++ {
		cl := cfg.ClassOf(s)
		row := asg.Rates[s]
		k := cl.Name + "|" + core.TraceFingerprint(&trace.HyperscalerTrace{Interval: cfg.Trace.Interval, RatesGbps: row})
		idx, ok := itemIdx[k]
		if !ok {
			idx = len(items)
			itemIdx[k] = idx
			items = append(items, item{
				plat:  cl.Platform,
				rates: row,
				seed:  cfg.Seed ^ classSeed(cl.Name),
				label: fmt.Sprintf("fleet %s %s", cfg.Policy, cl.Name),
			})
		}
		srvItem[s] = idx
	}

	replays := make([]core.ServerReplay, len(items))
	step := r.StepProgress(len(items))
	r.ForEach(len(items), func(k int) {
		it := items[k]
		replays[k] = r.ReplayServer(workload, it.plat, it.rates, cfg.Trace.Interval, it.seed, group)
		step(it.label)
	})

	res := Result{
		Policy:      cfg.Policy,
		Servers:     n,
		SLO:         cfg.slo(),
		OfferedGbps: cfg.Trace.MeanGbps(),
		LostGbps:    asg.LostGbps(),
	}
	merged := stats.NewHistogram()
	var sent, within uint64
	var utilSum float64
	res.UtilMin = math.Inf(1)
	servers := make([]tco.FleetServer, 0, n)
	for s := 0; s < n; s++ {
		rep := replays[srvItem[s]]
		cl := cfg.ClassOf(s)
		res.AggTputGbps += rep.AvgTputGbps
		res.PowerW += rep.AvgPowerW
		utilSum += rep.Util
		res.UtilMin = math.Min(res.UtilMin, rep.Util)
		res.UtilMax = math.Max(res.UtilMax, rep.Util)
		merged.Merge(rep.Hist)
		sent += rep.Sent
		within += rep.Hist.CountAtOrBelow(cfg.slo())
		servers = append(servers, tco.FleetServer{SNIC: cl.Platform != core.HostCPU, PowerW: rep.AvgPowerW})
		res.PerServer = append(res.PerServer, ServerResult{
			Index: s, Class: cl.Name, Platform: cl.Platform,
			OfferedGbps: rep.OfferedGbps, TputGbps: rep.AvgTputGbps,
			Util: rep.Util, PowerW: rep.AvgPowerW, P99: rep.Latency.P99,
			Dropped: rep.Dropped, Sent: rep.Sent, Completed: rep.Completed,
		})
	}
	res.Latency = merged.Summarize()
	res.FleetP99 = res.Latency.P99
	// Attainment counts every issued request: one that never completed
	// (dropped, or stuck behind a dead server) cannot have met the SLO.
	if sent > 0 {
		res.Attainment = float64(within) / float64(sent)
	} else {
		res.Attainment = 1
	}
	res.MeetsSLO = res.Attainment >= targetAttainment
	if res.OfferedGbps > 0 {
		res.DeliveredFrac = res.AggTputGbps / res.OfferedGbps
	} else {
		res.DeliveredFrac = 1
	}
	res.UtilMean = utilSum / float64(n)
	if res.UtilMin > res.UtilMax {
		res.UtilMin, res.UtilMax = 0, 0
	}
	res.AvgPowerPerServerW = res.PowerW / float64(n)
	res.EnergyKWhPerDay = power.EnergyKWh(power.Watts(res.PowerW), 24*3600*sim.Second)
	res.TCO5yrUSD = tco.PaperCostModel().FleetTCO(servers)
	return res, nil
}

// capacities estimates per-server capacity and efficiency score from the
// advisor's analytic predictor — the same model a real dispatcher would
// hold, and deliberately an estimate rather than ground truth.
func capacities(r *core.Runner, workload *core.Config, cfg *Config) (caps, scores []float64) {
	adv := core.NewAdvisorWith(r)
	type est struct{ cap, score float64 }
	byPlat := make(map[core.Platform]est)
	n := cfg.Servers()
	caps = make([]float64, n)
	scores = make([]float64, n)
	for s := 0; s < n; s++ {
		cl := cfg.ClassOf(s)
		e, ok := byPlat[cl.Platform]
		if !ok {
			p := adv.Predict(workload, cl.Platform)
			e = est{cap: p.TputGbps, score: p.Efficiency()}
			byPlat[cl.Platform] = e
		}
		caps[s] = e.cap
		scores[s] = e.score
	}
	return caps, scores
}

// classSeed folds a class name into a seed offset so every class gets
// its own deterministic RNG stream family.
func classSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}
