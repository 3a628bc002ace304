package core

import (
	"io"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Simulator self-profiling. A Profiler aggregates the simulation
// infrastructure's own counters — engine events executed, event-heap
// high-water, memo-cache traffic, worker-pool fan-out — across every
// simulation of the runners it is attached to. It answers "how hard did
// the simulator work", where telemetry answers "what did the model do";
// the repository benchmark (perfbench) reads its engine and cache
// counters.
//
// Every counter is virtual-state only (no wall clock), so a profile is
// byte-identical across runs. It is the same at any parallelism as long
// as no two workers look up one memo key at once, because only then
// would both simulate it; no snicbench experiment does, and
// `make profile-smoke` compares -j 1 with -j $(nproc). Wall-clock rates
// live in the callers (cmd layer), never here.

// Profiler is internally locked: one Profiler may serve several runners
// running simulations on many goroutines, like an obs.Collector.
type Profiler struct {
	mu  sync.Mutex
	reg *obs.Registry

	events, runs               *obs.CounterMetric
	heapPeaks, livePendingEnds *obs.HistogramMetric
	cacheHits, cacheMisses     *obs.CounterMetric
	poolTasks, poolBatches     *obs.CounterMetric

	heapPeak   int
	maxWorkers int
}

// NewProfiler returns an empty profiler with its metric set registered.
func NewProfiler() *Profiler {
	reg := obs.NewRegistry()
	return &Profiler{
		reg:             reg,
		events:          reg.Counter("engine/events", "events"),
		runs:            reg.Counter("engine/runs", "runs"),
		heapPeaks:       reg.Histogram("engine/heap_peak", "events"),
		livePendingEnds: reg.Histogram("engine/live_pending_end", "events"),
		cacheHits:       reg.Counter("cache/hits", "lookups"),
		cacheMisses:     reg.Counter("cache/misses", "lookups"),
		poolTasks:       reg.Counter("pool/tasks", "tasks"),
		poolBatches:     reg.Counter("pool/batches", "fanouts"),
	}
}

// NoteEngine folds one finished simulation's engine profile into the
// aggregate. Nil-safe.
func (p *Profiler) NoteEngine(eng *sim.Engine) {
	if p == nil {
		return
	}
	ep := eng.Profile()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.runs.Add(1)
	p.events.Add(float64(ep.Executed))
	p.heapPeaks.Observe(float64(ep.HeapPeak))
	p.livePendingEnds.Observe(float64(ep.Pending))
	if ep.HeapPeak > p.heapPeak {
		p.heapPeak = ep.HeapPeak
	}
}

// noteCache tallies one memo-cache lookup.
func (p *Profiler) noteCache(hit bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if hit {
		p.cacheHits.Add(1)
	} else {
		p.cacheMisses.Add(1)
	}
}

// notePool tallies one worker-pool fan-out of n items on up to workers
// goroutines.
func (p *Profiler) notePool(workers, n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.poolBatches.Add(1)
	p.poolTasks.Add(float64(n))
	if workers > p.maxWorkers {
		p.maxWorkers = workers
	}
}

// SelfProfile is the headline aggregate of a Profiler: what the
// simulator infrastructure did across all runs so far.
type SelfProfile struct {
	// Runs is how many simulations contributed (cache hits excluded).
	Runs uint64 `json:"runs"`
	// Events is the total discrete events executed.
	Events uint64 `json:"events"`
	// HeapPeak is the deepest event queue any run reached.
	HeapPeak int `json:"heap_peak"`
	// CacheHits/CacheMisses tally memo-cache lookups.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// PoolTasks/PoolBatches tally worker-pool fan-outs; MaxWorkers is
	// the widest fan-out used.
	PoolTasks   uint64 `json:"pool_tasks"`
	PoolBatches uint64 `json:"pool_batches"`
	MaxWorkers  int    `json:"max_workers"`
}

// Snapshot returns the headline aggregate.
func (p *Profiler) Snapshot() SelfProfile {
	if p == nil {
		return SelfProfile{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return SelfProfile{
		Runs:        uint64(p.runs.Value()),
		Events:      uint64(p.events.Value()),
		HeapPeak:    p.heapPeak,
		CacheHits:   uint64(p.cacheHits.Value()),
		CacheMisses: uint64(p.cacheMisses.Value()),
		PoolTasks:   uint64(p.poolTasks.Value()),
		PoolBatches: uint64(p.poolBatches.Value()),
		MaxWorkers:  p.maxWorkers,
	}
}

// WriteProfile writes the full metric snapshot (name-sorted JSON) — the
// profile.json payload. Deterministic; see the comment at the top of
// this file for when it is the same at every parallelism.
func (p *Profiler) WriteProfile(w io.Writer) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reg.WriteJSON(w)
}

// SetProfiler attaches a profiler to the runner: every simulation's
// engine profile, every memo-cache lookup and every worker-pool fan-out
// is folded into it. Call before launching experiments.
func (r *Runner) SetProfiler(p *Profiler) { r.prof = p }
