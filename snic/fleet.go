package snic

import (
	"io"

	"repro/internal/fleet"
	"repro/internal/report"
)

// Fleet-level simulation (DESIGN.md S22): a datacenter of servers built
// from the single-server models, a dispatcher with pluggable placement
// policies, and the provisioning search that generalizes Table 5.

// Fleet types re-exported from internal/fleet.
type (
	FleetClass      = fleet.Class
	FleetConfig     = fleet.Config
	FleetOutage     = fleet.Outage
	FleetPolicy     = fleet.Policy
	FleetResult     = fleet.Result
	FleetServer     = fleet.ServerResult
	ProvisionSpec   = fleet.ProvisionSpec
	ProvisionOpts   = fleet.ProvisionOpts
	ProvisionResult = fleet.ProvisionResult
)

// Dispatch policies.
const (
	RoundRobin       = fleet.RoundRobin
	LeastOutstanding = fleet.LeastOutstanding
	SLOAware         = fleet.SLOAware
	AdvisorDriven    = fleet.AdvisorDriven
)

// FleetPolicies lists every dispatch policy in presentation order.
func FleetPolicies() []FleetPolicy { return fleet.Policies() }

// NICHosts, SNICCPUs and SNICAccels build the three standard server
// classes of a fleet mix.
func NICHosts(n int) FleetClass   { return fleet.NICHosts(n) }
func SNICCPUs(n int) FleetClass   { return fleet.SNICCPUs(n) }
func SNICAccels(n int) FleetClass { return fleet.SNICAccels(n) }

// RunFleet simulates a fleet on this testbed: dispatches the trace
// across the servers under the configured policy, replays every server
// (in parallel, identical servers once, byte-identical at any
// parallelism) and rolls up throughput, SLO attainment, utilization,
// power, energy and 5-year TCO.
func (t *Testbed) RunFleet(cfg FleetConfig) (FleetResult, error) {
	return fleet.Run(t.runner, cfg)
}

// Provision binary-searches the minimum server count of each flavour
// (SNIC-side platform vs NIC-only host) that serves the spec's target
// load, and prices both fleets.
func (t *Testbed) Provision(spec ProvisionSpec, opts ProvisionOpts) (ProvisionResult, error) {
	return fleet.Provision(t.runner, spec, opts)
}

// ProvisionTable5 provisions the paper's four Table 5 applications.
func (t *Testbed) ProvisionTable5(opts ProvisionOpts) ([]ProvisionResult, error) {
	return fleet.ProvisionTable5(t.runner, opts)
}

// Table5Specs returns the paper's four provisioning applications.
func Table5Specs() []ProvisionSpec { return fleet.Table5Specs() }

// RenderFleet writes fleet results as a policy-comparison table.
func RenderFleet(w io.Writer, rows []FleetResult) { report.Fleet(w, rows) }

// RenderFleetServers writes one fleet run's per-class server detail.
func RenderFleetServers(w io.Writer, r FleetResult) { report.FleetServers(w, r) }

// RenderProvision writes the provisioning-search table.
func RenderProvision(w io.Writer, rows []ProvisionResult) { report.Provision(w, rows) }
