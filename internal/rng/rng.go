// Package rng provides deterministic pseudo-randomness for the DRAM and
// RowHammer fault-model simulators.
//
// Two facilities are provided:
//
//   - Keyed hashing (Hash64, Mix): a cell's circuit-level parameters must
//     be a pure function of its coordinates (module seed, bank, row,
//     column, bit) so that billions of cells can be modeled without
//     storing per-cell state. Hash64 gives a high-quality 64-bit value
//     for an arbitrary key tuple.
//
//   - Stream: a small, fast xoshiro256** generator seeded from a key,
//     used where a sequence of draws is needed (test repetitions,
//     thermocouple noise, PARA coin flips).
//
// All draws are reproducible across runs and platforms.
package rng

import "math"

// golden64 is the 64-bit golden-ratio increment used by splitmix64.
const golden64 = 0x9e3779b97f4a7c15

// splitmix64 advances a splitmix64 state and returns the next output.
// It is the canonical generator recommended for seeding xoshiro.
func splitmix64(state uint64) uint64 {
	z := state + golden64
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix combines two 64-bit values into one with strong avalanche behavior.
func Mix(a, b uint64) uint64 {
	return splitmix64(splitmix64(a) ^ (b + golden64))
}

// hashSeed is the initial fold state shared by Hash64 and the
// fixed-arity fast paths; they must agree bit-for-bit.
const hashSeed = uint64(0x8c95b3b1f9f2d1a7)

// Hash64 hashes an arbitrary tuple of 64-bit keys into a single 64-bit
// value. Hash64(k...) is a pure function of its inputs; changing any
// input bit changes roughly half of the output bits.
//
// Hash64 is the general case and the equivalence anchor for the
// fixed-arity Hash64x2..Hash64x5 fast paths below: for matching key
// counts they return identical values, but avoid the variadic keys
// slice and so never allocate. Hot paths (the fault-model disturb
// kernel hashes several times per cell) use the fixed-arity forms.
func Hash64(keys ...uint64) uint64 {
	h := hashSeed
	for _, k := range keys {
		h = Mix(h, k)
	}
	return splitmix64(h)
}

// Hash64x2 is Hash64(a, b) without the variadic slice. 0 allocs/op.
func Hash64x2(a, b uint64) uint64 {
	return splitmix64(Mix(Mix(hashSeed, a), b))
}

// Hash64x3 is Hash64(a, b, c) without the variadic slice. 0 allocs/op.
func Hash64x3(a, b, c uint64) uint64 {
	return splitmix64(Mix(Mix(Mix(hashSeed, a), b), c))
}

// Hash64x4 is Hash64(a, b, c, d) without the variadic slice. 0 allocs/op.
func Hash64x4(a, b, c, d uint64) uint64 {
	return splitmix64(Mix(Mix(Mix(Mix(hashSeed, a), b), c), d))
}

// Hash64x5 is Hash64(a, b, c, d, e) without the variadic slice. 0 allocs/op.
func Hash64x5(a, b, c, d, e uint64) uint64 {
	return splitmix64(Mix(Mix(Mix(Mix(Mix(hashSeed, a), b), c), d), e))
}

// HashPrefix folds leading tuple elements into a reusable prefix:
//
//	Hash64(a, b, c, x) == Hash64Suffix(HashPrefix(a, b, c), x)
//
// for every x. Loops that hash many tuples sharing a common prefix
// (the disturb kernel hashes (seed, bank, row, bit) for every bit of a
// row) hoist the shared fold out of the loop. The prefix is the fold
// state already advanced by the splitmix64 round the next Mix applies
// to it, so that round is hoisted too.
func HashPrefix(keys ...uint64) uint64 {
	h := hashSeed
	for _, k := range keys {
		h = Mix(h, k)
	}
	return splitmix64(h)
}

// Hash64Suffix completes a hash from a HashPrefix prefix and the final
// tuple element: the rest of Mix(fold, last), then the final round.
// 0 allocs/op.
func Hash64Suffix(prefix, last uint64) uint64 {
	return splitmix64(splitmix64(prefix ^ (last + golden64)))
}

// HashString hashes a string into a 64-bit value, for keying
// deterministic draws on textual identities (job keys, module names,
// fault channels). Like Hash64 it is a pure function of its input.
func HashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	var chunk uint64
	n := 0
	for i := 0; i < len(s); i++ {
		chunk = chunk<<8 | uint64(s[i])
		if n++; n == 8 {
			h = Mix(h, chunk)
			chunk, n = 0, 0
		}
	}
	if n > 0 {
		h = Mix(h, chunk)
	}
	// Fold in the length so "a\x00" and "a" cannot collide.
	return Mix(h, uint64(len(s)))
}

// Uniform01 maps a 64-bit hash to a float64 in [0, 1).
func Uniform01(h uint64) float64 {
	return float64(h>>11) * (1.0 / (1 << 53))
}

// UniformRange maps a hash to a float64 in [lo, hi).
func UniformRange(h uint64, lo, hi float64) float64 {
	return lo + Uniform01(h)*(hi-lo)
}

// Stream is a xoshiro256** PRNG. The zero value is not valid; use
// NewStream.
type Stream struct {
	s [4]uint64
}

// NewStream returns a Stream seeded deterministically from key.
func NewStream(key uint64) *Stream {
	var st Stream
	st.Reseed(key)
	return &st
}

// Reseed resets the stream to the state derived from key.
func (r *Stream) Reseed(key uint64) {
	sm := key
	for i := range r.s {
		sm += golden64
		r.s[i] = splitmix64(sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = golden64
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// Float64 returns a uniform draw in [0, 1).
func (r *Stream) Float64() float64 { return Uniform01(r.Uint64()) }

// Intn returns a uniform draw in [0, n). n must be positive.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded draw would be overkill here;
	// modulo bias is negligible for the small n used by the simulators,
	// but we still use the high bits which have better statistics.
	return int((r.Uint64() >> 1) % uint64(n))
}

// Range returns a uniform draw in [lo, hi).
func (r *Stream) Range(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// Normal returns a standard normal draw using the polar Box-Muller
// method (one value per call; the spare is discarded for simplicity).
func (r *Stream) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormalMS returns a normal draw with the given mean and standard
// deviation.
func (r *Stream) NormalMS(mean, sd float64) float64 {
	return mean + sd*r.Normal()
}

// Bernoulli returns true with probability p.
func (r *Stream) Bernoulli(p float64) bool { return r.Float64() < p }

// Perm fills dst with a random permutation of 0..len(dst)-1
// (Fisher-Yates).
func (r *Stream) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}

// NormalFromHash converts two independent hashes into one standard
// normal deviate, for pure-function cell parameters (Box-Muller).
func NormalFromHash(h1, h2 uint64) float64 {
	u1 := Uniform01(h1)
	u2 := Uniform01(h2)
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
