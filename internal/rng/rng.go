// Package rng provides the random number generation BPMF needs: a fast
// counter-seeded xoshiro256** generator and samplers for the normal, gamma,
// chi-square, Wishart and multivariate normal distributions (the C++ STL
// <random> + hand-rolled samplers of the paper's implementation).
//
// The central design decision is *keyed streams*: every Gibbs draw comes
// from a stream deterministically derived from (seed, iteration, side,
// item). A stream's output depends only on its key, never on which thread
// or rank happens to perform the draw, so sequential, multi-core and
// distributed runs of the sampler consume identical randomness. This turns
// the paper's "all versions reach the same RMSE" claim into an exactly
// testable property.
//
// The same values come out on every architecture. Every product that feeds
// a sum is rounded on its own (float64(x*y)), so no arch fuses it, and the
// samplers take logarithms from log, a port of math.Log that is amd64's
// bit for bit. The rank-one item update draws its items' normals four
// streams at a time (FillNormLanes): on amd64 an AVX2 polar loop with one
// xoshiro256** stream per 64-bit lane. Its rule is la's lane rule: a lane
// holds one stream's values, and every floating-point step is one the
// scalar Norm performs, in its order, a multiply, add, subtract, divide or
// square root on its own, never a fused multiply-add. The Go body is the
// reference and the path everywhere else.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// Used for seeding and key mixing (Steele et al., "Fast Splittable
// Pseudorandom Number Generators").
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix combines a seed and a sequence of key words into a single 64-bit
// value with good avalanche, for deriving stream seeds.
func Mix(seed uint64, keys ...uint64) uint64 {
	s := seed ^ 0x6a09e667f3bcc908
	out := splitMix64(&s)
	for _, k := range keys {
		s ^= k
		out ^= splitMix64(&s)
	}
	return out
}

// Stream is a xoshiro256** PRNG with a cached spare normal deviate.
// It is NOT safe for concurrent use; create one stream per (iteration,
// side, item) via NewKeyed.
type Stream struct {
	s         [4]uint64
	haveSpare bool
	spare     float64
}

// New creates a stream from a raw seed, expanding it with SplitMix64 as
// recommended by the xoshiro authors.
func New(seed uint64) *Stream {
	st := &Stream{}
	st.Reinit(seed)
	return st
}

// NewKeyed creates the stream identified by (seed, keys...). Equal keys
// give byte-identical streams; distinct keys give independent streams.
func NewKeyed(seed uint64, keys ...uint64) *Stream {
	return New(Mix(seed, keys...))
}

// Reinit resets r in place to exactly the state New(seed) creates,
// discarding any cached spare deviate. Hot loops that draw from one
// stream per work item re-key a scratch stream instead of allocating a
// fresh one (the engines draw ~M+N item streams per Gibbs iteration).
func (r *Stream) Reinit(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.haveSpare = false
	r.spare = 0
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// State returns the raw xoshiro state words, for resumable sequential
// scans that hand a stream across process boundaries (the distributed
// train/test split pipeline). The cached spare normal deviate is NOT
// part of the state: capture/restore is exact only for consumers that
// never draw normals (Float64/Uint64/Intn), which is what the split
// uses.
func (r *Stream) State() [4]uint64 { return r.s }

// SetState restores a state captured with State, discarding any cached
// spare deviate (see State for the exactness contract).
func (r *Stream) SetState(s [4]uint64) {
	r.s = s
	r.haveSpare = false
	r.spare = 0
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(float64(r.Uint64()>>11) * 0x1.0p-53)
}

// Intn returns a uniform integer in [0, n). Panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // tiny modulo bias, irrelevant here
}

// Norm returns a standard normal variate using the Marsaglia polar method
// (one spare deviate is cached).
func (r *Stream) Norm() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := float64(2*r.Float64()) - 1
		v := float64(2*r.Float64()) - 1
		s := float64(u*u) + float64(v*v)
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// FillNorm fills dst with independent standard normal variates.
func (r *Stream) FillNorm(dst []float64) {
	for i := range dst {
		dst[i] = r.Norm()
	}
}

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia–Tsang
// squeeze method; for shape < 1 it applies the boost
// X_a = X_{a+1} * U^{1/a}. Panics for shape <= 0.
func (r *Stream) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	boost := 1.0
	if shape < 1 {
		boost = math.Pow(r.Float64(), 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.Norm()
			v = 1 + float64(c*x)
			if v > 0 {
				break
			}
		}
		v = float64(v * v * v)
		u := r.Float64()
		if u < 1-float64(0.0331*x*x*x*x) {
			return boost * d * v
		}
		if log(u) < float64(0.5*x*x)+float64(d*(1-v+log(v))) {
			return boost * d * v
		}
	}
}

// ChiSq returns a chi-square variate with k degrees of freedom (k may be
// fractional; the Wishart Bartlett decomposition uses integer-spaced dfs).
func (r *Stream) ChiSq(k float64) float64 {
	return 2 * r.Gamma(k/2)
}
