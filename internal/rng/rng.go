// Package rng provides small, fast, deterministic pseudo-random number
// generators for the simulator.
//
// The simulator must be bit-for-bit reproducible across runs and platforms,
// so it never touches math/rand's global state. Every stochastic component
// (one per traffic source, typically) owns its own Stream seeded from an
// experiment seed and a stream identifier, so adding or removing components
// does not perturb the random sequences seen by the others.
//
// The core generator is PCG32 (O'Neill, pcg-random.org, the PCG-XSH-RR
// variant) seeded through SplitMix64, both implemented here from the public
// specifications using only integer arithmetic.
package rng

import "math"

// SplitMix64 advances the given state and returns the next 64-bit output.
// It is used to derive well-distributed seeds from (seed, stream) pairs.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Derive folds a sequence of identifiers into an experiment seed and returns
// a well-distributed subordinate seed. It is the hierarchical analogue of
// New's (seed, stream) construction: Derive(seed, a, b, c) depends on every
// part and on their order, so a sweep can give each design point — e.g.
// (topology, rate index, replicate) — its own independent seed while staying
// bit-for-bit reproducible for a fixed base seed.
func Derive(seed uint64, parts ...uint64) uint64 {
	mix := seed
	out := SplitMix64(&mix)
	for _, p := range parts {
		mix ^= (p + 1) * 0xD1342543DE82EF95
		out = SplitMix64(&mix)
	}
	return out
}

// Stream is a PCG32 generator. The zero value is not usable; construct
// streams with New.
type Stream struct {
	state uint64
	inc   uint64 // stream selector; always odd
}

// New returns a Stream derived from an experiment-level seed and a stream
// identifier. Distinct (seed, stream) pairs yield statistically independent
// sequences.
func New(seed, stream uint64) *Stream {
	mix := seed
	s0 := SplitMix64(&mix)
	mix ^= stream * 0xD1342543DE82EF95
	s1 := SplitMix64(&mix)
	r := &Stream{inc: (s1 << 1) | 1}
	r.state = s0 + r.inc
	r.Uint32()
	return r
}

// Uint32 returns the next 32 bits from the stream.
func (r *Stream) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 bits from the stream.
func (r *Stream) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless rejection method keeps the result unbiased.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	bound := uint32(n)
	// Multiply-shift with rejection of the biased low region.
	threshold := -bound % bound
	for {
		x := r.Uint32()
		m := uint64(x) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1) with 53 bits of
// precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p.
func (r *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success; i.e. a sample from the geometric distribution on {0, 1, 2, ...}
// with mean (1-p)/p. It is the discrete analogue of the exponential
// inter-arrival time used by the paper's Poisson traffic sources. p must be
// in (0, 1].
func (r *Stream) Geometric(p float64) int64 {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric with non-positive p")
	}
	// Inversion: floor(ln(U) / ln(1-p)) with U in (0,1).
	u := 1.0 - r.Float64() // in (0, 1]
	g := math.Floor(math.Log(u) / math.Log(1.0-p))
	if g < 0 {
		return 0
	}
	if g > math.MaxInt64/2 {
		return math.MaxInt64 / 2
	}
	return int64(g)
}
