package sim

import (
	"math"
	"testing"
)

// checkCos fails t unless cos2Pi(u) has math.Cos(2π·u)'s bits.
func checkCos(t testing.TB, u float64) {
	got, want := cos2Pi(u), math.Cos(2*math.Pi*u)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("cos2Pi(%v) = %v (%#x), math.Cos(2π·u) = %v (%#x)",
			u, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestCos2PiMatchesMathCos holds the branch-free cosine to the standard
// library's bit for bit: on uniform angles, at every double near an
// octant edge, and at the ends of what RNG.Float64 returns.
func TestCos2PiMatchesMathCos(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10_000_000; i++ {
		checkCos(t, r.Float64())
	}
	// Every double within 2^16 ulps of k/8, the u at which x = 2π·u
	// crosses into octant k (the octant k = 8 edge is u = 1, outside
	// the domain, so only the doubles below it).
	for k := 0; k <= 8; k++ {
		edge := float64(k) / 8
		u := edge
		for i := 0; i < 1<<16 && u < 1; i++ {
			checkCos(t, u)
			u = math.Nextafter(u, 1)
		}
		u = edge
		for i := 0; i < 1<<16 && u > 0; i++ {
			u = math.Nextafter(u, 0)
			checkCos(t, u)
		}
	}
	// The 2^20 smallest and largest values Float64 can return: the
	// multiples of 2^-53 in [0, 1).
	for n := uint64(0); n < 1<<20; n++ {
		checkCos(t, float64(n)/(1<<53))
		checkCos(t, float64(1<<53-1-n)/(1<<53))
	}
}

// FuzzCos2Pi checks the cosine against math.Cos on any u Float64 can
// return, built from 53 fuzzed bits.
func FuzzCos2Pi(f *testing.F) {
	for _, seed := range []uint64{0, 1, 1 << 50, 1<<53 - 1, 3 << 50, 5 << 50, 7 << 50} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkCos(t, float64(bits&(1<<53-1))/(1<<53))
	})
}

// TestLogNormalStreamMatchesPerCall: drawing a block ahead hands the
// stream's consumer the same values, in the same order, as
// LogNormalDur on a same-seeded RNG, whatever the median and sigma;
// a median ≤ 0 yields zeros and draws nothing. At a 2^50 ns median one
// ulp of the float product moves the duration, so the comparison sees
// the float draws, not only their truncation.
func TestLogNormalStreamMatchesPerCall(t *testing.T) {
	for _, tc := range []struct {
		median Duration
		sigma  float64
	}{
		{28 * Microsecond, 0.45}, {600 * Nanosecond, 0.15}, {1, 2}, {1 << 50, 0.45}, {0, 0.45}, {-5, 0.3},
	} {
		s := NewLogNormalStream(7, tc.median, tc.sigma)
		r := NewRNG(7)
		for k := 0; k < 10_000; k++ {
			if got, want := s.Next(), r.LogNormalDur(tc.median, tc.sigma); got != want {
				t.Fatalf("median %v sigma %v: draw %d = %v, per-call sampler %v", tc.median, tc.sigma, k, got, want)
			}
		}
		if tc.median <= 0 && s.rng != *NewRNG(7) {
			t.Fatalf("median %v: the stream drew from its RNG", tc.median)
		}
	}
}

// TestExpStreamMatchesPerCall: the stream applies each call's mean at
// use, so its k-th drawing call equals RNG.Exp's k-th on a same-seeded
// RNG at any sequence of means; a mean ≤ 0 yields 0 and consumes
// nothing, on either side. At a 2^52 ns mean one ulp of the mean-1
// exponential moves the duration.
func TestExpStreamMatchesPerCall(t *testing.T) {
	s := NewExpStream(9)
	r := NewRNG(9)
	means := []Duration{Microsecond, 0, 83, 1, -3, 512 * Nanosecond, Second, 0, 1 << 52, 0, 7}
	for k := 0; k < 20_000; k++ {
		mean := means[k%len(means)] + Duration(k%5)*means[(k/3)%len(means)]
		if got, want := s.Exp(mean), r.Exp(mean); got != want {
			t.Fatalf("call %d (mean %v) = %v, per-call sampler %v", k, mean, got, want)
		}
	}
}

var durSink Duration

func BenchmarkExp(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		durSink += r.Exp(Microsecond)
	}
}

func BenchmarkNormal(b *testing.B) {
	r := NewRNG(1)
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.Normal(0, 0.45)
	}
	durSink += Duration(s)
}

func BenchmarkLogNormalDur(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		durSink += r.LogNormalDur(28*Microsecond, 0.45)
	}
}

// BenchmarkLogNormalStream draws what BenchmarkLogNormalDur does, a
// block at a time.
func BenchmarkLogNormalStream(b *testing.B) {
	s := NewLogNormalStream(1, 28*Microsecond, 0.45)
	for i := 0; i < b.N; i++ {
		durSink += s.Next()
	}
}

// BenchmarkExpStream draws what BenchmarkExp does, a block at a time.
func BenchmarkExpStream(b *testing.B) {
	s := NewExpStream(1)
	for i := 0; i < b.N; i++ {
		durSink += s.Exp(Microsecond)
	}
}
