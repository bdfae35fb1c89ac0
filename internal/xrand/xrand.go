// Package xrand provides the pseudo-random number machinery of the GPU
// pipeline: a faithful implementation of Marsaglia's XORWOW generator —
// the default generator of Nvidia's cuRAND library, which the paper uses
// for both the perturbation and the acceptance kernels — together with
// SplitMix64-based seeding and per-thread stream derivation.
//
// The paper notes that cuRAND delivers integers and that a normalization
// step maps them to floating-point values in [0,1); Float64 reproduces
// that normalization.
package xrand

import "math"

// xorwowWeyl is the Weyl-sequence increment of the XORWOW counter, the
// constant used by Marsaglia (2003) and cuRAND.
const xorwowWeyl = 362437

// XORWOW is Marsaglia's xorwow generator: a 160-bit xorshift state plus a
// Weyl counter, with period 2^192 − 2^32. The zero value is not a valid
// generator; use New or NewStream.
type XORWOW struct {
	x, y, z, w, v uint32
	d             uint32
}

// New returns a XORWOW generator seeded from the given 64-bit seed via
// SplitMix64 (which guarantees a non-degenerate initial state).
func New(seed uint64) *XORWOW {
	return NewStream(seed, 0)
}

// NewStream returns a XORWOW generator for a numbered sub-stream of the
// seed. Distinct stream numbers yield statistically independent sequences;
// the pipeline assigns one stream per simulated GPU thread, mirroring
// cuRAND's per-thread sequence initialization.
func NewStream(seed, stream uint64) *XORWOW {
	sm := seed ^ (stream+1)*0x9E3779B97F4A7C15
	r := &XORWOW{}
	s0 := SplitMix64(&sm)
	s1 := SplitMix64(&sm)
	s2 := SplitMix64(&sm)
	r.x = uint32(s0)
	r.y = uint32(s0 >> 32)
	r.z = uint32(s1)
	r.w = uint32(s1 >> 32)
	r.v = uint32(s2)
	r.d = uint32(s2 >> 32)
	// The xorshift part of the state must not be all zero (the Weyl
	// counter may be anything).
	if r.x|r.y|r.z|r.w|r.v == 0 {
		r.v = 0x6C078965
	}
	return r
}

// Uint32 advances the generator and returns the next 32-bit value.
func (r *XORWOW) Uint32() uint32 {
	t := r.x ^ (r.x >> 2)
	r.x, r.y, r.z, r.w = r.y, r.z, r.w, r.v
	r.v = (r.v ^ (r.v << 4)) ^ (t ^ (t << 1))
	r.d += xorwowWeyl
	return r.v + r.d
}

// Uint64 returns the next 64-bit value (two generator steps).
func (r *XORWOW) Uint64() uint64 {
	hi := uint64(r.Uint32())
	lo := uint64(r.Uint32())
	return hi<<32 | lo
}

// Int63 returns a non-negative 63-bit value, satisfying math/rand.Source.
func (r *XORWOW) Int63() int64 { return int64(r.Uint64() >> 1) }

// Seed is present to satisfy math/rand.Source; reseeding in place is
// intentionally a full state reset.
func (r *XORWOW) Seed(seed int64) { *r = *New(uint64(seed)) }

// Float64 returns a uniform value in [0,1). It reproduces the paper's
// normalization of cuRAND integers: the 32-bit output divided by 2^32.
func (r *XORWOW) Float64() float64 {
	return float64(r.Uint32()) / (1 << 32)
}

// Float64Open returns a uniform value in (0,1], useful where a logarithm
// of the variate is taken (e.g. exponential acceptance sampling).
func (r *XORWOW) Float64Open() float64 {
	return (float64(r.Uint32()) + 1) / (1 << 32)
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0 or if n
// does not fit in 32 bits (far beyond any job count in this repository).
// Lemire's multiply-shift method with rejection keeps the result exactly
// uniform.
func (r *XORWOW) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	if int64(n) > 1<<32-1 {
		panic("xrand: Intn bound exceeds 32 bits")
	}
	bound := uint32(n)
	threshold := -bound % bound // (2^32 − bound) mod bound
	for {
		prod := uint64(r.Uint32()) * uint64(bound)
		if uint32(prod) >= threshold {
			return int(prod >> 32)
		}
	}
}

// Shuffle permutes seq uniformly in place with the descending
// Fisher–Yates loop of Intn(i+1) draws, i = len(seq)−1 … 1. The
// permutation and the generator's final state equal that loop's exactly;
// Shuffle only keeps the generator state in locals for the whole pass
// and skips the rejection threshold's modulo whenever the draw's low
// word is already at least the bound (the threshold is below the bound,
// so the draw is accepted either way). It panics if seq is longer than
// Intn can bound.
func Shuffle[S ~int | ~int32](r *XORWOW, seq []S) {
	if int64(len(seq)) > 1<<32-1 {
		panic("xrand: Shuffle length exceeds 32 bits")
	}
	x, y, z, w, v, d := r.x, r.y, r.z, r.w, r.v, r.d
	for i := len(seq) - 1; i > 0; i-- {
		bound := uint32(i + 1)
		var prod uint64
		for {
			t := x ^ (x >> 2)
			x, y, z, w = y, z, w, v
			v = (v ^ (v << 4)) ^ (t ^ (t << 1))
			d += xorwowWeyl
			prod = uint64(v+d) * uint64(bound)
			if lo := uint32(prod); lo >= bound || lo >= -bound%bound {
				break
			}
		}
		j := int(prod >> 32)
		seq[i], seq[j] = seq[j], seq[i]
	}
	r.x, r.y, r.z, r.w, r.v, r.d = x, y, z, w, v, d
}

// NormFloat64 returns a standard normal variate via the polar
// Box–Muller method. Used for temperature-estimation diagnostics.
func (r *XORWOW) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// SplitMix64 advances *state by the golden-gamma constant and returns the
// finalized output. It is the standard state-initialization PRNG of
// Steele, Lea and Flood.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
