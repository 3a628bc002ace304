// Package stats provides the measurement primitives used by the testbed:
// log-bucketed latency histograms with percentile queries, throughput
// meters, and time series, all in virtual time.
//
// The paper reports maximum sustainable throughput and 99th-percentile
// (p99) latency; this package is where those numbers come from.
package stats

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// Histogram records durations in logarithmically spaced buckets covering
// [1ns, ~1000s) with 32 sub-buckets per power of two (HDR-histogram
// style). Quantile error is bounded by the bucket width: below ~1.6%.
type Histogram struct {
	counts   []uint64
	total    uint64
	sum      float64
	min, max sim.Duration
}

const (
	histOctaves = 40 // 2^40 ns ≈ 18 minutes, ample for any latency
	histSub     = 32 // sub-buckets per octave
)

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{
		counts: make([]uint64, histOctaves*histSub),
		min:    math.MaxInt64,
	}
}

// bucket maps a duration to a bucket index.
func (h *Histogram) bucket(d sim.Duration) int {
	if d < 1 {
		d = 1
	}
	f := float64(d)
	idx := int(math.Log2(f) * histSub)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.counts) {
		idx = len(h.counts) - 1
	}
	return idx
}

// bucketValue maps a bucket index back to a representative duration
// (geometric midpoint of the bucket).
func (h *Histogram) bucketValue(idx int) sim.Duration {
	lo := math.Exp2(float64(idx) / histSub)
	hi := math.Exp2(float64(idx+1) / histSub)
	return sim.Duration(math.Sqrt(lo * hi))
}

// Record adds one observation.
func (h *Histogram) Record(d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("stats: negative duration %v", d))
	}
	h.counts[h.bucket(d)]++
	h.total++
	h.sum += float64(d)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the arithmetic mean of all observations.
func (h *Histogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.total))
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the duration at quantile q in [0,1]. Exact min/max are
// returned at the extremes; interior quantiles carry bucket-width error.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := h.bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// P50, P99 and P999 are the quantiles the paper reports.
func (h *Histogram) P50() sim.Duration  { return h.Quantile(0.50) }
func (h *Histogram) P99() sim.Duration  { return h.Quantile(0.99) }
func (h *Histogram) P999() sim.Duration { return h.Quantile(0.999) }

// CountAtOrBelow returns the number of observations whose bucket
// representative is at or below d — the numerator of an SLO attainment
// ratio (fraction of requests meeting a latency target). Like Quantile,
// the answer carries bucket-width error at interior thresholds.
func (h *Histogram) CountAtOrBelow(d sim.Duration) uint64 {
	if h.total == 0 || d < h.min {
		return 0
	}
	if d >= h.max {
		return h.total
	}
	var n uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		v := h.bucketValue(i)
		if v < h.min {
			v = h.min
		}
		if v > d {
			break
		}
		n += c
	}
	return n
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.total == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.total += other.total
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset clears all recorded observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
}

// Summary is a compact snapshot of a latency distribution.
type Summary struct {
	Count          uint64
	Mean, P50, P99 sim.Duration
	P999, Min, Max sim.Duration
}

// Summarize captures the distribution's headline numbers.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total,
		Mean:  h.Mean(),
		P50:   h.P50(),
		P99:   h.P99(),
		P999:  h.P999(),
		Min:   h.Min(),
		Max:   h.Max(),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean, s.P50, s.P99, s.P999, s.Max)
}

// ExactQuantile computes a quantile exactly from raw samples; the test
// suite uses it as ground truth against Histogram's bucketed answer.
func ExactQuantile(samples []sim.Duration, q float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := make([]sim.Duration, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := int(q * float64(len(s)))
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
