package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHash64Deterministic(t *testing.T) {
	a := Hash64(1, 2, 3)
	b := Hash64(1, 2, 3)
	if a != b {
		t.Fatalf("Hash64 not deterministic: %x != %x", a, b)
	}
}

func TestHash64DistinguishesInputs(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 1000; i++ {
		h := Hash64(i, 42)
		if seen[h] {
			t.Fatalf("collision at i=%d", i)
		}
		seen[h] = true
	}
}

func TestHash64OrderSensitive(t *testing.T) {
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 should be order sensitive")
	}
}

func TestHash64AvalancheProperty(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Hash64(12345)
	totalBits := 0
	trials := 0
	for bit := uint(0); bit < 64; bit++ {
		h := Hash64(12345 ^ (1 << bit))
		diff := h ^ base
		n := 0
		for diff != 0 {
			n += int(diff & 1)
			diff >>= 1
		}
		totalBits += n
		trials++
	}
	avg := float64(totalBits) / float64(trials)
	if avg < 24 || avg > 40 {
		t.Fatalf("poor avalanche: avg %0.1f differing bits, want ~32", avg)
	}
}

func TestUniform01Bounds(t *testing.T) {
	if err := quick.Check(func(h uint64) bool {
		u := Uniform01(h)
		return u >= 0 && u < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRangeBounds(t *testing.T) {
	if err := quick.Check(func(h uint64) bool {
		u := UniformRange(h, -5, 17)
		return u >= -5 && u < 17
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDeterministic(t *testing.T) {
	a := NewStream(99)
	b := NewStream(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestStreamReseed(t *testing.T) {
	s := NewStream(7)
	first := s.Uint64()
	s.Uint64()
	s.Reseed(7)
	if got := s.Uint64(); got != first {
		t.Fatalf("Reseed did not reset stream: %x != %x", got, first)
	}
}

func TestStreamDifferentSeedsDiffer(t *testing.T) {
	a := NewStream(1)
	b := NewStream(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestStreamFloat64Mean(t *testing.T) {
	s := NewStream(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestStreamIntnBounds(t *testing.T) {
	s := NewStream(4)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("Intn badly skewed: bucket %d has %d/10000", v, c)
		}
	}
}

func TestStreamIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewStream(1).Intn(0)
}

func TestStreamNormalMoments(t *testing.T) {
	s := NewStream(5)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := s.Normal()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestBernoulliProbability(t *testing.T) {
	s := NewStream(10)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) hit rate %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := NewStream(11)
	dst := make([]int, 50)
	s.Perm(dst)
	seen := make([]bool, 50)
	for _, v := range dst {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", dst)
		}
		seen[v] = true
	}
}

func TestNormalFromHashMoments(t *testing.T) {
	sum, sumSq := 0.0, 0.0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		x := NormalFromHash(Hash64(i, 1), Hash64(i, 2))
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("hash-normal mean=%v var=%v", mean, variance)
	}
}

func TestMixNotIdentity(t *testing.T) {
	if Mix(0, 0) == 0 {
		t.Fatal("Mix(0,0) should not be 0")
	}
	if Mix(1, 2) == Mix(2, 1) {
		t.Fatal("Mix should not be commutative")
	}
}

func BenchmarkHash64Tuple5(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64(uint64(i), 1, 2, 3, 4)
	}
	_ = sink
}

func BenchmarkStreamUint64(b *testing.B) {
	s := NewStream(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func TestHashStringStableAndDistinct(t *testing.T) {
	a := HashString("hcfirst/A/0")
	if a != HashString("hcfirst/A/0") {
		t.Fatal("HashString not deterministic")
	}
	// Distinguishes strings that only differ past the first 8-byte
	// chunk, and length-prefix-related collisions.
	cases := []string{"", "a", "hcfirst/A/1", "hcfirst/B/0", "hcfirst/A/00", "hcfirst/A/0\x00"}
	seen := map[uint64]string{a: "hcfirst/A/0"}
	for _, s := range cases {
		h := HashString(s)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision: %q and %q both hash to %#x", prev, s, h)
		}
		seen[h] = s
	}
}

func TestFixedArityHashesMatchVariadic(t *testing.T) {
	// The fixed-arity fast paths must agree with the variadic fold on
	// random tuples; they are the hot-path forms of the same function.
	s := NewStream(0xfa57)
	for i := 0; i < 10_000; i++ {
		k := [5]uint64{s.Uint64(), s.Uint64(), s.Uint64(), s.Uint64(), s.Uint64()}
		if got, want := Hash64x2(k[0], k[1]), Hash64(k[0], k[1]); got != want {
			t.Fatalf("Hash64x2(%#x, %#x) = %#x, want %#x", k[0], k[1], got, want)
		}
		if got, want := Hash64x3(k[0], k[1], k[2]), Hash64(k[0], k[1], k[2]); got != want {
			t.Fatalf("Hash64x3 mismatch on %v: %#x vs %#x", k[:3], got, want)
		}
		if got, want := Hash64x4(k[0], k[1], k[2], k[3]), Hash64(k[0], k[1], k[2], k[3]); got != want {
			t.Fatalf("Hash64x4 mismatch on %v: %#x vs %#x", k[:4], got, want)
		}
		if got, want := Hash64x5(k[0], k[1], k[2], k[3], k[4]), Hash64(k[0], k[1], k[2], k[3], k[4]); got != want {
			t.Fatalf("Hash64x5 mismatch on %v: %#x vs %#x", k[:], got, want)
		}
	}
}

func TestFixedArityHashesDoNotAllocate(t *testing.T) {
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		sink ^= Hash64x2(1, 2)
		sink ^= Hash64x3(1, 2, 3)
		sink ^= Hash64x4(1, 2, 3, 4)
		sink ^= Hash64x5(1, 2, 3, 4, 5)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("fixed-arity hashes allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkHash64x2(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64x2(uint64(i), 1)
	}
	_ = sink
}

func BenchmarkHash64x4(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64x4(uint64(i), 1, 2, 3)
	}
	_ = sink
}

func BenchmarkHash64x5(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64x5(uint64(i), 1, 2, 3, 4)
	}
	_ = sink
}

func BenchmarkHash64Variadic5(b *testing.B) {
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Hash64(uint64(i), 1, 2, 3, 4)
	}
	_ = sink
}

func TestHashPrefixSuffixMatchesHash64(t *testing.T) {
	s := Stream{}
	s.Reseed(0x9ef1)
	for i := 0; i < 10_000; i++ {
		a, b, c, d := s.Uint64(), s.Uint64(), s.Uint64(), s.Uint64()
		if got, want := Hash64Suffix(HashPrefix(a, b, c), d), Hash64(a, b, c, d); got != want {
			t.Fatalf("Hash64Suffix(HashPrefix(%d,%d,%d),%d) = %#x, Hash64 = %#x", a, b, c, d, got, want)
		}
		if got, want := Hash64Suffix(HashPrefix(a), b), Hash64(a, b); got != want {
			t.Fatalf("prefix of one element diverged: %#x vs %#x", got, want)
		}
	}
}

func TestHash64SuffixDoesNotAllocate(t *testing.T) {
	p := HashPrefix(1, 2, 3)
	if n := testing.AllocsPerRun(100, func() { _ = Hash64Suffix(p, 4) }); n != 0 {
		t.Fatalf("Hash64Suffix allocates %v per run", n)
	}
}
