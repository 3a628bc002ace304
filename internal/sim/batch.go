package sim

// BatchStation models a hardware engine that processes work in batches:
// the BlueField-2 REM and compression accelerators accept task batches
// assembled by staging CPU cores and retire whole batches at a fixed
// engine rate.
//
// Tasks accumulate until either MaxBatch tasks are pending or MaxWait has
// elapsed since the first task of the batch arrived, then the batch is
// submitted to an internal single-server engine whose service time is
// PerBatch + sum(per-task service). Batching amortizes submission overhead
// (raising throughput) at the cost of added queueing latency — exactly the
// throughput/latency trade the paper observes for the SNIC accelerators.
type BatchStation struct {
	eng *Engine

	// MaxBatch is the largest number of tasks submitted at once.
	MaxBatch int
	// MaxWait bounds how long the first task of a batch waits for
	// companions before the batch is flushed anyway.
	MaxWait Duration
	// PerBatch is the fixed engine overhead per batch submission
	// (doorbell + DMA descriptor fetch).
	PerBatch Duration

	engine  *Station
	pending []*Job
	timer   EventID
	armed   bool
	// firstAt is when the oldest pending task arrived, for batch-wait
	// accounting when an observer is installed.
	firstAt Time

	// jobs recycles the task jobs Exec submits; free recycles retired
	// batches with their engine job and task slice.
	jobs jobPool
	free []*batch

	completed uint64

	// Optional telemetry hook (see Observe).
	batchObs BatchObserver
}

// batch is one flushed batch in the engine: its engine job, whose Done
// is the batch's retire method bound once when the record is built, and
// the tasks it carries.
type batch struct {
	b     *BatchStation
	job   Job
	tasks []*Job
}

// NewBatchStation returns a batching engine with one internal server.
func NewBatchStation(eng *Engine, maxBatch int, maxWait, perBatch Duration) *BatchStation {
	if maxBatch <= 0 {
		panic("sim: batch size must be positive")
	}
	return &BatchStation{
		eng:      eng,
		MaxBatch: maxBatch,
		MaxWait:  maxWait,
		PerBatch: perBatch,
		engine:   NewStation(eng, 1),
	}
}

// Observe installs telemetry observers bound to this station: obs
// watches the internal engine station, batchObs watches batch assembly.
// Either may be nil. Observers must not mutate model state.
func (b *BatchStation) Observe(obs StationObserver, batchObs BatchObserver) {
	b.batchObs = batchObs
	b.engine.Observe(obs)
}

// Submit adds a task to the current batch.
//
//snicvet:hotpath
func (b *BatchStation) Submit(j *Job) {
	if j == nil {
		panic("sim: Submit(nil)")
	}
	if len(b.pending) == 0 {
		b.firstAt = b.eng.Now()
	}
	//snicvet:ignore hotpath -- amortized growth to MaxBatch; flushed batches hand their emptied slice back
	b.pending = append(b.pending, j)
	if len(b.pending) >= b.MaxBatch {
		b.flush()
		return
	}
	if !b.armed {
		b.armed = true
		b.timer = b.eng.AfterCall(b.MaxWait, (*batchTimer)(b), nil)
	}
}

// Exec adds a task of the given service time whose batch retirement
// calls done (which may be nil). The task's job comes from the station's
// free list and goes back to it at retirement, so steady-state
// submission allocates nothing.
//
//snicvet:hotpath
func (b *BatchStation) Exec(svc Duration, done func(start, end Time)) {
	b.Submit(b.jobs.get(svc, done))
}

// batchTimer is the MaxWait flush timer's handler: the BatchStation
// under another method set, which keeps HandleEvent off its API.
type batchTimer BatchStation

// HandleEvent flushes a batch whose oldest task waited MaxWait.
//
//snicvet:hotpath
func (t *batchTimer) HandleEvent(any) {
	b := (*BatchStation)(t)
	b.armed = false
	b.flush()
}

// flush submits the accumulated batch to the engine.
//
//snicvet:hotpath
func (b *BatchStation) flush() {
	if b.armed {
		b.eng.Cancel(b.timer)
		b.armed = false
	}
	if len(b.pending) == 0 {
		return
	}
	bt := b.newBatch()
	// The batch takes the pending tasks; assembly continues in the
	// batch record's emptied slice.
	bt.tasks, b.pending = b.pending, bt.tasks
	if b.batchObs != nil {
		now := b.eng.Now()
		b.batchObs.BatchFlushed(len(bt.tasks), now.Sub(b.firstAt), now)
	}
	total := b.PerBatch
	for _, j := range bt.tasks {
		total += j.Service
	}
	bt.job.Service = total
	b.engine.Submit(&bt.job)
}

// newBatch takes a batch record off the free list, or builds one (with
// its retire callback bound once) when the list is dry.
//
//snicvet:hotpath
func (b *BatchStation) newBatch() *batch {
	if n := len(b.free); n > 0 {
		bt := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		return bt
	}
	//snicvet:ignore hotpath -- free-list growth up to the peak number of batches in the engine; steady state reuses retired batches
	bt := &batch{b: b}
	bt.job.Done = bt.retire
	return bt
}

// retire completes every task of the batch, then recycles the batch
// record and its pooled task jobs.
//
//snicvet:hotpath
func (bt *batch) retire(start, end Time) {
	b := bt.b
	b.completed += uint64(len(bt.tasks))
	for i, j := range bt.tasks {
		bt.tasks[i] = nil
		done := j.Done
		if j.pooled {
			b.jobs.put(j)
		}
		if done != nil {
			done(start, end)
		}
	}
	bt.tasks = bt.tasks[:0]
	//snicvet:ignore hotpath -- amortized free-list growth; capacity tops out at the peak number of batches in the engine
	b.free = append(b.free, bt)
}

// Completed returns the number of tasks retired.
func (b *BatchStation) Completed() uint64 { return b.completed }

// EngineQueueLen returns the number of batches waiting behind the engine.
func (b *BatchStation) EngineQueueLen() int { return b.engine.QueueLen() }

// Stall wedges the internal engine until t (see Station.StallUntil):
// batches starting before then hold the engine without retiring.
func (b *BatchStation) Stall(t Time) { b.engine.StallUntil(t) }

// Stalled reports whether the internal engine is currently stalled.
func (b *BatchStation) Stalled() bool { return b.engine.Stalled() }

// Utilization returns the engine's busy fraction.
func (b *BatchStation) Utilization() float64 { return b.engine.Utilization() }
