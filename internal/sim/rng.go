package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64 core) with the distribution helpers simulation models need.
//
// We deliberately do not use math/rand: models embed an RNG per component
// so that adding a new component never perturbs the random stream of an
// existing one, which keeps calibrated experiments stable across refactors.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed ^ 0x9e3779b97f4a7c15}
}

// Fork derives an independent child generator. The child's stream is a pure
// function of the parent's current state and the label, so component trees
// can hand out sub-streams deterministically.
func (r *RNG) Fork(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0xbf58476d1ce4e5b9))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n(0)")
	}
	// Rejection sampling to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed duration with the given mean.
// Exponential inter-arrivals give Poisson packet arrivals, the standard
// open-loop load model used by the paper's pktgen-style generators.
func (r *RNG) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	return expDur(r.stdExp(), mean)
}

// stdExp draws an exponential of mean 1: −ln u for the first nonzero
// uniform u.
func (r *RNG) stdExp() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// expDur scales a mean-1 exponential e to mean, in Exp's float order:
// (−ln u)·mean.
func expDur(e float64, mean Duration) Duration {
	return Duration(e * float64(mean))
}

// Normal returns a normally distributed value (Box–Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * cos2Pi(u2)
	return mean + stddev*z
}

// LogNormalDur returns a log-normally distributed duration whose underlying
// normal has the given median and sigma. Service-time jitter in real systems
// is right-skewed; log-normal is the conventional fit and is what produces
// realistic p99/median gaps in our latency distributions.
func (r *RNG) LogNormalDur(median Duration, sigma float64) Duration {
	if median <= 0 {
		return 0
	}
	z := r.Normal(0, sigma)
	return Duration(float64(median) * math.Exp(z))
}

// cos2Pi returns math.Cos(2*math.Pi*u), bit for bit, for u in [0, 1):
// the Box–Muller angle. It is the standard library's pure-Go cos (the
// Cephes algorithm) restricted to x = 2π·u in [0, 2π), where the NaN,
// infinity and Payne–Hanek branches cannot trigger and x needs no Abs.
// It keeps cos's Cody–Waite reduction by π/4 in three parts and both of
// its polynomials, evaluated in the same order, but it evaluates both
// polynomials and picks the octant's one with a bit mask, then applies
// the octant's sign by XOR, which is what cos's negation does. On a
// uniform angle cos's octant branches mispredict about half the time;
// here no branch depends on u.
//
// On amd64, arm64 and every other port except s390x, math.Cos is that
// pure-Go cos (haveArchCos is true only on s390x, which calls an
// assembly routine), so the two agree bit for bit; the fuzz target and
// the boundary tests in rng_test.go hold the copy to it.
func cos2Pi(u float64) float64 {
	const (
		PI4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		PI4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		PI4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,
	)
	x := 2 * math.Pi * u
	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4): 0…8
	j += j & 1                     // map zeros to origin: the octant is even
	y := float64(j)
	z := ((x - y*PI4A) - y*PI4B) - y*PI4C // Extended precision modular arithmetic

	zz := z * z
	sin := z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])
	cos := 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
	// Octants 2 and 6 (mod 8) take the sine polynomial; 2 and 4 are
	// negative. Bit 1 of j selects the polynomial, bit 1 XOR bit 2 the
	// sign.
	pickSin := -(j >> 1 & 1)
	sign := (j>>1 ^ j>>2) & 1 << 63
	return math.Float64frombits(math.Float64bits(sin)&pickSin | math.Float64bits(cos)&^pickSin ^ sign)
}

// The sine and cosine polynomial coefficients of the standard library's
// cos (math/sin.go, from Cephes).
var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// drawBlock is how many draws a single-owner stream makes at a time.
// Consecutive draws are independent Log/Sqrt/Exp chains; drawn in one
// tight loop they overlap in the core instead of each waiting on its
// own result between the simulator's events.
const drawBlock = 32

// The single-owner streams below draw ahead, and are exact only because
// of three rules (DESIGN.md §6):
//   - the stream is owned by one consumer, so drawing ahead in order
//     hands that consumer the same sequence as drawing on demand;
//   - a draw's parameters are fixed when the stream is built
//     (LogNormalStream) or applied when the draw is used, in the
//     per-call sampler's float order (ExpStream);
//   - a draw the per-call sampler skips consumes nothing.
//
// Each block is filled by the per-call sampler's own code, so the
// k-th value is the per-call sampler's k-th value on a same-seeded RNG.

// LogNormalStream draws log-normal durations of a fixed median and
// sigma from a stream it alone owns, drawBlock at a time. Its k-th
// Next is LogNormalDur(median, sigma)'s k-th value on NewRNG(seed); a
// median ≤ 0 yields zeros and consumes nothing, as LogNormalDur does.
type LogNormalStream struct {
	rng    RNG
	median Duration
	sigma  float64
	left   int // undrawn values at the end of buf
	buf    [drawBlock]Duration
}

// NewLogNormalStream returns a stream seeded with seed.
func NewLogNormalStream(seed uint64, median Duration, sigma float64) LogNormalStream {
	return LogNormalStream{rng: *NewRNG(seed), median: median, sigma: sigma}
}

// Next returns the stream's next duration.
//
//snicvet:hotpath
func (s *LogNormalStream) Next() Duration {
	if s.left == 0 {
		for i := range s.buf {
			s.buf[i] = s.rng.LogNormalDur(s.median, s.sigma)
		}
		s.left = drawBlock
	}
	d := s.buf[drawBlock-s.left]
	s.left--
	return d
}

// ExpStream draws exponential durations from a stream it alone owns,
// drawBlock mean-1 exponentials at a time, and scales each to the mean
// it is used with. Its k-th drawing call Exp(mean) equals the k-th
// drawing call of RNG.Exp on NewRNG(seed); a mean ≤ 0 yields 0 and
// consumes nothing, as RNG.Exp does.
type ExpStream struct {
	rng  RNG
	left int // undrawn values at the end of buf
	buf  [drawBlock]float64
}

// NewExpStream returns a stream seeded with seed.
func NewExpStream(seed uint64) ExpStream {
	return ExpStream{rng: *NewRNG(seed)}
}

// Exp returns the stream's next exponential duration with the given
// mean.
//
//snicvet:hotpath
func (s *ExpStream) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	if s.left == 0 {
		for i := range s.buf {
			s.buf[i] = s.rng.stdExp()
		}
		s.left = drawBlock
	}
	e := s.buf[drawBlock-s.left]
	s.left--
	return expDur(e, mean)
}

// Pareto returns a bounded Pareto sample in [min, max] with shape alpha.
// Used for heavy-tailed burst sizes in the hyperscaler trace generator.
func (r *RNG) Pareto(min, max, alpha float64) float64 {
	if min <= 0 || max <= min {
		panic("sim: Pareto requires 0 < min < max")
	}
	u := r.Float64()
	ha := math.Pow(max, alpha)
	la := math.Pow(min, alpha)
	x := -(u*ha - u*la - ha) / (ha * la)
	return math.Pow(x, -1/alpha)
}

// Zipf draws from a Zipf distribution over [0, n) with exponent s using
// rejection-inversion (Hörmann–Derflinger). It matches the key popularity
// skew of YCSB-style workloads.
type Zipf struct {
	r            *RNG
	n            uint64
	s            float64
	oneMinusS    float64
	hIntegralX1  float64
	hIntegralNum float64
	sDiv         float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s (s != 1 is
// handled; s == 1 uses the limit form).
func NewZipf(r *RNG, n uint64, s float64) *Zipf {
	if n == 0 {
		panic("sim: NewZipf(n=0)")
	}
	z := &Zipf{r: r, n: n, s: s, oneMinusS: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNum = z.hIntegral(float64(n) + 0.5)
	z.sDiv = 2 - z.hIntegralInv(z.hIntegral(2.5)-z.h(2))
	return z
}

func (z *Zipf) h(x float64) float64 { return math.Exp(-z.s * math.Log(x)) }

func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

func (z *Zipf) hIntegralInv(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// Next returns the next Zipf sample in [0, n).
func (z *Zipf) Next() uint64 {
	for {
		u := z.hIntegralNum + z.r.Float64()*(z.hIntegralX1-z.hIntegralNum)
		x := z.hIntegralInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= z.sDiv || u >= z.hIntegral(k+0.5)-z.h(k) {
			return uint64(k) - 1
		}
	}
}

// helper1 computes log1p(x)/x with a series fallback near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - x*(0.5-x*(1/3.0-x*0.25))
}

// helper2 computes expm1(x)/x with a series fallback near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	return 1 + x*0.5*(1+x*(1/3.0)*(1+x*0.25))
}
