package stats

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// log2BucketClamped is the histogram's scale as it is specified: the
// math.Log2 bucket of max(d, 1), clamped to the buckets there are.
func log2BucketClamped(d sim.Duration) int {
	if d < 1 {
		d = 1
	}
	return min(max(log2Bucket(d), 0), histBuckets-1)
}

func checkBucket(t testing.TB, h *Histogram, d sim.Duration) {
	if got, want := h.bucket(d), log2BucketClamped(d); got != want {
		t.Fatalf("bucket(%d) = %d, math.Log2 bucket %d", d, got, want)
	}
}

// TestBucketTableMatchesLog2 holds the table lookup to the math.Log2
// bucket exhaustively over the first 22 octaves, near every bucket
// edge of all 40, and past the last.
func TestBucketTableMatchesLog2(t *testing.T) {
	h := NewHistogram()
	for d := sim.Duration(-5); d < 1<<22; d++ {
		checkBucket(t, h, d)
	}
	for _, floor := range bucketFloor {
		for d := floor - 4096; d <= floor+4096; d++ {
			checkBucket(t, h, d)
		}
	}
	for _, d := range []sim.Duration{1 << 40, 1 << 62, math.MaxInt64} {
		checkBucket(t, h, d)
	}
}

// FuzzHistogramBucket checks the table lookup against the math.Log2
// bucket for any duration.
func FuzzHistogramBucket(f *testing.F) {
	for _, d := range []int64{-1, 0, 1, 2, 3, 255, 256, 257, 1<<40 - 1, 1 << 40, math.MaxInt64} {
		f.Add(d)
	}
	h := NewHistogram()
	f.Fuzz(func(t *testing.T, d int64) {
		checkBucket(t, h, sim.Duration(d))
	})
}
