package core

import (
	"sync"
	"sync/atomic"
)

// This file is the parallel experiment engine. The paper's evaluation is
// dozens of independent virtual-time simulations (Fig. 4 alone runs two
// MaxThroughput searches per catalog entry), and every simulation builds
// its own Testbed — private event queue, private RNG streams seeded only
// from (TestbedConfig.Seed, RunOpts.Seed) — so runs share no mutable
// state and can execute on any number of goroutines. Determinism is
// preserved by construction:
//
//  1. independent engines: nothing a worker computes can observe another
//     worker's scheduling, only its own virtual clock;
//  2. ordered merge: results land in caller-owned slots indexed by
//     submission order, so the assembled figure/table is byte-identical
//     to the sequential output for the same seed;
//  3. no shared RNG: seeds derive from the work item, never from a
//     stream that parallel workers would consume in racy order.
//
// The progress callback is the one deliberately unordered channel:
// completion order under parallelism is scheduling-dependent, so the
// callback reports only counts and a label, never results.

// forEach runs fn(i) for every i in [0, n) on at most workers
// goroutines. workers <= 1 degenerates to a plain loop on the calling
// goroutine; otherwise indices are handed out through an atomic counter
// so slow items don't convoy behind a fixed pre-partitioning.
func forEach(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// forEachN fans fn across the runner's configured parallelism.
func (r *Runner) forEachN(n int, fn func(int)) {
	workers := r.parallelism()
	if workers > n {
		workers = n
	}
	r.prof.notePool(workers, n)
	forEach(workers, n, fn)
}

// ForEach is the exported fan-out for sibling packages (package fleet
// runs one worker per simulated server). Results must land in
// caller-owned slots indexed by i, exactly as the internal experiments
// do, so merged output stays byte-identical at any parallelism.
func (r *Runner) ForEach(n int, fn func(int)) { r.forEachN(n, fn) }

// StepProgress returns a step function for an experiment of total rows,
// for callers outside this package that want the same serialized
// progress reporting the built-in experiments get.
func (r *Runner) StepProgress(total int) func(label string) {
	p := r.newProgress(total)
	return p.step
}

// parallelism normalizes the Parallelism knob: 0 (zero value) and 1 both
// mean sequential.
func (r *Runner) parallelism() int {
	if r.Parallelism < 1 {
		return 1
	}
	return r.Parallelism
}

// progressTracker counts completed rows of one experiment and forwards
// them to the runner's Progress callback.
type progressTracker struct {
	r     *Runner
	mu    sync.Mutex
	done  int
	total int
}

// newProgress returns a tracker for an experiment of total rows. It is
// cheap enough to create unconditionally; with no Progress callback set
// every step is a no-op.
func (r *Runner) newProgress(total int) *progressTracker {
	return &progressTracker{r: r, total: total}
}

// step records one finished row and reports it. Callbacks are serialized
// across all concurrent trackers (experiments may nest or overlap), so a
// user callback needs no locking of its own.
func (p *progressTracker) step(label string) {
	if p == nil || p.r.Progress == nil {
		return
	}
	p.mu.Lock()
	p.done++
	done := p.done
	p.mu.Unlock()
	p.r.reportProgress(done, p.total, label)
}

// reportProgress invokes the Progress callback under the runner-wide
// progress lock.
func (r *Runner) reportProgress(done, total int, label string) {
	if r.Progress == nil {
		return
	}
	r.progMu.Lock()
	defer r.progMu.Unlock()
	r.Progress(done, total, label)
}
