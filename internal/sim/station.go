package sim

// Job is a unit of work submitted to a Station. Service is the time a
// server spends on it; Done is invoked on completion (it may be nil).
// Callers that do not need to hold on to the job use Station.Exec,
// which takes it from the station's free list instead.
type Job struct {
	Service Duration
	Done    func(start, end Time)
	// Size optionally carries a byte size for utilization accounting by
	// callers; the station itself does not interpret it.
	Size int

	// enqueuedAt records submission time for queue-wait accounting when
	// an observer is installed; startedAt carries the service start to
	// the completion handler, so no per-job closure is needed.
	enqueuedAt Time
	startedAt  Time
	// pooled marks a job owned by a jobPool: its owner recycles it once
	// Done has been read, so the caller never sees it.
	pooled bool
}

// jobPool is a free list of Jobs for submitters that do not keep their
// job: Station.Exec and BatchStation.Exec. Steady state takes and
// returns records without allocating once the list covers the peak
// number of jobs in flight.
type jobPool struct {
	free []*Job
}

// get returns a pooled job carrying svc and done.
//
//snicvet:hotpath
func (p *jobPool) get(svc Duration, done func(start, end Time)) *Job {
	if n := len(p.free); n > 0 {
		j := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		j.Service, j.Done = svc, done
		return j
	}
	//snicvet:ignore hotpath -- free-list growth up to the peak number of jobs in flight; steady state reuses retired jobs
	return &Job{Service: svc, Done: done, pooled: true}
}

// put returns a job to the free list, dropping its callback so a
// recycled record never pins model state.
//
//snicvet:hotpath
func (p *jobPool) put(j *Job) {
	j.Done = nil
	//snicvet:ignore hotpath -- amortized free-list growth; capacity tops out at the peak number of jobs in flight
	p.free = append(p.free, j)
}

// Station is a multi-server FIFO queue: the canonical model of a pool of
// CPU cores or a fixed-function engine with k parallel lanes.
//
// Jobs queue when all servers are busy. There is no preemption: datacenter
// packet processing runs to completion per packet, and the paper's
// latency behaviour (queueing delay exploding past the service-capacity
// knee) falls directly out of this model.
type Station struct {
	eng     *Engine
	servers int
	busy    int
	// queue is a ring-flavoured FIFO: qhead indexes the next job to
	// dispatch and pops advance it instead of re-slicing, so the backing
	// array is reused instead of crawling forward and forcing append to
	// reallocate every Capacity pushes.
	queue []*Job
	qhead int
	// Capacity limits the queue length; zero means unbounded. When the
	// queue is full new jobs are dropped and counted — this is how NIC RX
	// rings shed load at overrun.
	Capacity int
	// stallUntil gates job starts: a job starting before this instant has
	// the remaining stall prepended to its service time, modelling an
	// engine whose pipeline is wedged (lanes held, no progress). Jobs
	// already in service when the stall begins are unaffected — real engine
	// stalls hit the fetch stage, not work already in the retire queue.
	stallUntil Time

	// Statistics.
	completed  uint64
	dropped    uint64
	busyTime   Duration
	lastChange Time

	// jobs recycles the jobs Exec submits.
	jobs jobPool

	// Optional telemetry hook (see Observe).
	obs StationObserver
}

// NewStation returns a station with the given number of parallel servers.
func NewStation(eng *Engine, servers int) *Station {
	if servers <= 0 {
		panic("sim: station needs at least one server")
	}
	return &Station{eng: eng, servers: servers}
}

// Servers returns the number of parallel servers.
func (s *Station) Servers() int { return s.servers }

// Busy returns how many servers are currently serving a job.
func (s *Station) Busy() int { return s.busy }

// QueueLen returns the number of jobs waiting (not in service).
//
//snicvet:hotpath
func (s *Station) QueueLen() int { return len(s.queue) - s.qhead }

// Completed returns the number of jobs fully served.
func (s *Station) Completed() uint64 { return s.completed }

// Dropped returns the number of jobs rejected due to a full queue.
func (s *Station) Dropped() uint64 { return s.dropped }

// Utilization returns the mean fraction of busy server-time observed so
// far: busy server-seconds divided by servers × elapsed virtual time.
func (s *Station) Utilization() float64 {
	s.accrue()
	elapsed := s.eng.Now().Sub(0)
	if elapsed <= 0 {
		return 0
	}
	return float64(s.busyTime) / (float64(elapsed) * float64(s.servers))
}

// Observe installs a telemetry observer bound to this station.
// Observers are pure recorders: they must not mutate model state.
func (s *Station) Observe(obs StationObserver) { s.obs = obs }

// Submit enqueues a job. It reports false if the job was dropped because
// the queue is at capacity.
//
//snicvet:hotpath
func (s *Station) Submit(j *Job) bool {
	if j == nil {
		panic("sim: Submit(nil)")
	}
	j.enqueuedAt = s.eng.Now()
	if s.busy < s.servers {
		s.start(j)
		return true
	}
	if s.Capacity > 0 && s.QueueLen() >= s.Capacity {
		s.dropped++
		if s.obs != nil {
			s.obs.JobDropped(s.eng.Now())
		}
		return false
	}
	if s.qhead > 0 && len(s.queue) == cap(s.queue) {
		// Compact the live region to the front so append reuses the
		// backing array instead of growing it.
		n := copy(s.queue, s.queue[s.qhead:])
		for i := n; i < len(s.queue); i++ {
			s.queue[i] = nil
		}
		s.queue = s.queue[:n]
		s.qhead = 0
	}
	//snicvet:ignore hotpath -- amortized ring growth; a steady-state queue reuses its capacity
	s.queue = append(s.queue, j)
	if s.obs != nil {
		s.obs.JobQueued(s.eng.Now(), s.QueueLen())
	}
	return true
}

// Exec submits a job of the given service time whose completion calls
// done (which may be nil), reporting false if it was dropped at
// capacity. The job comes from the station's free list and goes back to
// it when it retires or is dropped, so steady-state submission allocates
// nothing.
//
//snicvet:hotpath
func (s *Station) Exec(svc Duration, done func(start, end Time)) bool {
	j := s.jobs.get(svc, done)
	if !s.Submit(j) {
		s.jobs.put(j)
		return false
	}
	return true
}

// StallUntil wedges the station until t: jobs starting before then serve
// only after the stall clears (their server is held busy meanwhile).
// Passing a time in the past clears the stall.
func (s *Station) StallUntil(t Time) { s.stallUntil = t }

// Stalled reports whether a stall gate is currently active.
func (s *Station) Stalled() bool { return s.stallUntil > s.eng.Now() }

//snicvet:hotpath
func (s *Station) start(j *Job) {
	s.accrue()
	s.busy++
	begin := s.eng.Now()
	j.startedAt = begin
	if s.obs != nil {
		s.obs.JobStarted(begin, begin.Sub(j.enqueuedAt))
	}
	svc := j.Service
	if hold := s.stallUntil.Sub(begin); hold > 0 {
		svc += hold
	}
	s.eng.AfterCall(svc, s, j)
}

// HandleEvent completes a job at service end: the station schedules
// itself as the engine handler with the job as argument, so completion
// costs no closure. Never call it directly.
//
//snicvet:hotpath
func (s *Station) HandleEvent(arg any) {
	j := arg.(*Job)
	s.accrue()
	s.busy--
	s.completed++
	// Dispatch queued work BEFORE invoking Done: a closed-loop
	// client that re-submits from its completion callback must go
	// to the back of the queue, not steal the freed server.
	s.dispatch()
	if s.obs != nil {
		s.obs.JobFinished(j.startedAt, s.eng.Now())
	}
	done, start := j.Done, j.startedAt
	if j.pooled {
		// Recycled before Done runs, so a job Done submits reuses it.
		s.jobs.put(j)
	}
	if done != nil {
		done(start, s.eng.Now())
	}
}

//snicvet:hotpath
func (s *Station) dispatch() {
	for s.busy < s.servers && s.qhead < len(s.queue) {
		j := s.queue[s.qhead]
		s.queue[s.qhead] = nil
		s.qhead++
		if s.qhead == len(s.queue) {
			// Drained: rewind to the front of the backing array.
			s.queue = s.queue[:0]
			s.qhead = 0
		}
		s.start(j)
	}
}

// accrue folds busy-time since the last state change into the counter.
//
//snicvet:hotpath
func (s *Station) accrue() {
	now := s.eng.Now()
	s.busyTime += now.Sub(s.lastChange) * Duration(s.busy)
	s.lastChange = now
}
