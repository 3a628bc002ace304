package sim

// Analytic oracles for the substrate: a Station fed Poisson arrivals
// with exponential service is an M/M/c queue, whose mean wait is the
// Erlang-C closed form; a single-server Station with bimodal service
// and a Link fed Poisson frames of one size are M/G/1 and M/D/1 queues,
// whose mean waits are the Pollaczek–Khinchine formula; and a
// BatchStation fed Poisson tasks flushes at whichever comes first of a
// full batch and its timeout, a closed-form fill time. The waits come
// from bound observers, the same hooks telemetry uses. Each run's mean
// wait must fall within a 99.9% confidence bound built from batch
// means, which accounts for the waits' autocorrelation.

import (
	"fmt"
	"math"
	"testing"
)

// batches is the number of batch means; tBatches is Student's t at
// 99.9% two-sided confidence for batches-1 degrees of freedom.
const (
	batches  = 30
	tBatches = 3.659
)

// checkMeanWait compares the mean of waits (after dropping the first
// tenth as warm-up) with want. It fails when the difference exceeds the
// batch-means confidence half-width, or when that half-width exceeds
// 10% of want, which would leave the check without power.
func checkMeanWait(t *testing.T, waits []Duration, want Duration) {
	t.Helper()
	waits = waits[len(waits)/10:]
	size := len(waits) / batches
	var sum, sumSq float64
	for b := 0; b < batches; b++ {
		var m float64
		for _, w := range waits[b*size : (b+1)*size] {
			m += float64(w)
		}
		m /= float64(size)
		sum += m
		sumSq += m * m
	}
	mean := sum / batches
	sd := math.Sqrt((sumSq - batches*mean*mean) / (batches - 1))
	half := tBatches * sd / math.Sqrt(batches)
	t.Logf("mean wait %.1f ns ± %.1f, closed form %d ns", mean, half, want)
	if half > 0.1*float64(want) {
		t.Fatalf("confidence half-width %.1f ns is over 10%% of the expected %d ns: run longer", half, want)
	}
	if math.Abs(mean-float64(want)) > half {
		t.Fatalf("mean wait %.1f ns, closed form %d ns: outside ±%.1f ns", mean, want, half)
	}
}

// erlangC returns the probability that an arrival waits in an M/M/c
// queue with offered load a = λ/μ Erlangs (a < c).
func erlangC(c int, a float64) float64 {
	term, sum := 1.0, 0.0 // term is a^k/k!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term * float64(c) / (float64(c) - a) // a^c/c! · 1/(1-ρ)
	return tail / (sum + tail)
}

// stationWaits records each job's queue wait from a bound observer.
type stationWaits struct{ waits []Duration }

func (o *stationWaits) JobQueued(Time, int)           {}
func (o *stationWaits) JobStarted(_ Time, w Duration) { o.waits = append(o.waits, w) }
func (o *stationWaits) JobFinished(Time, Time)        {}
func (o *stationWaits) JobDropped(Time)               {}

// linkWaits records each frame's wait for the wire: the time from
// submission to the start of its serialization slot.
type linkWaits struct {
	eng   *Engine
	waits []Duration
}

func (o *linkWaits) FrameSent(_ int, start, _ Time, _ bool) {
	o.waits = append(o.waits, start.Sub(o.eng.Now()))
}

// poissonArrivals calls arrive n times at exponential gaps of mean gap.
func poissonArrivals(e *Engine, rng *RNG, gap Duration, n int, arrive func()) {
	var next func()
	next = func() {
		arrive()
		if n--; n > 0 {
			e.After(rng.Exp(gap), next)
		}
	}
	e.After(rng.Exp(gap), next)
}

func TestStationMatchesErlangC(t *testing.T) {
	const svc = 10 * Microsecond
	for _, tc := range []struct {
		servers int
		rho     float64
		jobs    int
		seed    uint64
	}{
		{1, 0.7, 300_000, 1},
		{4, 0.7, 800_000, 2},
	} {
		t.Run(fmt.Sprintf("c=%d", tc.servers), func(t *testing.T) {
			e := NewEngine()
			st := NewStation(e, tc.servers)
			log := &stationWaits{}
			st.Observe(log)
			rng := NewRNG(tc.seed)
			gap := Duration(float64(svc) / (tc.rho * float64(tc.servers)))
			poissonArrivals(e, rng, gap, tc.jobs, func() { st.Exec(rng.Exp(svc), nil) })
			e.Run()

			// Wq = C(c, a) / (cμ − λ), with a = λ/μ = cρ.
			a := tc.rho * float64(tc.servers)
			mu := 1 / float64(svc)
			checkMeanWait(t, log.waits, Duration(erlangC(tc.servers, a)/(float64(tc.servers)*mu-a*mu)))
		})
	}
}

// A single server whose jobs are short, with a tenth of them ten times
// longer, is an M/G/1 queue with bimodal service, like the M/B
// generator of xmp_sched_sim. Pollaczek–Khinchine sets its mean wait by
// the service time's second moment, which the rare long jobs dominate.
func TestStationMatchesPollaczekKhinchineBimodal(t *testing.T) {
	const (
		short, long = 1 * Microsecond, 10 * Microsecond
		pLong       = 0.1
		rho         = 0.7
	)
	e := NewEngine()
	st := NewStation(e, 1)
	log := &stationWaits{}
	st.Observe(log)
	rng := NewRNG(4)
	mean := (1-pLong)*float64(short) + pLong*float64(long)
	poissonArrivals(e, rng, Duration(mean/rho), 600_000, func() {
		svc := short
		if rng.Float64() < pLong {
			svc = long
		}
		st.Exec(svc, nil)
	})
	e.Run()

	// M/G/1: Wq = λE[S²] / (2(1−ρ)), with λ = ρ/E[S]: about 6,693 ns.
	second := (1-pLong)*float64(short)*float64(short) + pLong*float64(long)*float64(long)
	checkMeanWait(t, log.waits, Duration(rho/mean*second/(2*(1-rho))))
}

func TestLinkMatchesPollaczekKhinchine(t *testing.T) {
	const (
		mtu  = 1500
		rate = 10e9
		rho  = 0.7
	)
	e := NewEngine()
	l := NewLink(e, rate, 500*Nanosecond)
	log := &linkWaits{eng: e}
	l.Observe(log)
	ser := DurationOf(mtu, rate)
	rng := NewRNG(3)
	poissonArrivals(e, rng, Duration(float64(ser)/rho), 600_000, func() { l.Send(mtu, nil) })
	e.Run()

	// M/D/1: Wq = ρS / (2(1−ρ)).
	want := Duration(rho * float64(ser) / (2 * (1 - rho)))
	checkMeanWait(t, log.waits, want)
}

// batchWaits records each batch's assembly wait from a bound observer.
type batchWaits struct{ waits []Duration }

func (o *batchWaits) BatchFlushed(_ int, waited Duration, _ Time) {
	o.waits = append(o.waits, waited)
}

// meanMinPoisson returns E[min(N, k)] for N ~ Poisson(m): the sum of
// P(N ≥ j) over j = 1..k.
func meanMinPoisson(m float64, k int) float64 {
	pj, below, sum := math.Exp(-m), 0.0, 0.0 // pj is P(N = j-1)
	for j := 1; j <= k; j++ {
		below += pj // P(N ≤ j-1)
		sum += 1 - below
		pj *= m / float64(j)
	}
	return sum
}

// A batch opens at its first task and flushes at the (B-1)th task after
// it or at MaxWait W, whichever comes first. With Poisson arrivals at
// rate λ its assembly wait is min(S, W), S the time of the (B-1)th
// arrival, whose mean is E[min(N, B-1)]/λ with N ~ Poisson(λW). At λW
// near B-1 both flush triggers fire.
func TestBatchMatchesFillTime(t *testing.T) {
	const gap = Microsecond // 1/λ
	for _, tc := range []struct {
		batch int
		lw    float64 // λW: expected arrivals within one MaxWait
		tasks int
		seed  uint64
	}{
		{16, 15, 600_000, 4},
		{16, 8, 400_000, 5},
		{16, 30, 600_000, 6},
		{4, 2, 120_000, 7},
	} {
		t.Run(fmt.Sprintf("B=%d,lw=%g", tc.batch, tc.lw), func(t *testing.T) {
			e := NewEngine()
			b := NewBatchStation(e, tc.batch, Duration(tc.lw*float64(gap)), 0)
			log := &batchWaits{}
			b.Observe(nil, log)
			rng := NewRNG(tc.seed)
			poissonArrivals(e, rng, gap, tc.tasks, func() { b.Exec(0, nil) })
			e.Run()

			checkMeanWait(t, log.waits, Duration(meanMinPoisson(tc.lw, tc.batch-1)*float64(gap)))
		})
	}
}
