package xrand

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestKnownRecurrence verifies the XORWOW update rule against a direct
// transcription of Marsaglia's recurrence, step by step, from an arbitrary
// state.
func TestKnownRecurrence(t *testing.T) {
	r := New(12345)
	// Snapshot the state and apply the recurrence by hand.
	x, y, z, w, v, d := r.x, r.y, r.z, r.w, r.v, r.d
	for i := 0; i < 1000; i++ {
		tt := x ^ (x >> 2)
		x, y, z, w = y, z, w, v
		v = (v ^ (v << 4)) ^ (tt ^ (tt << 1))
		d += xorwowWeyl
		want := v + d
		if got := r.Uint32(); got != want {
			t.Fatalf("step %d: Uint32() = %#x, manual recurrence %#x", i, got, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(99), New(99)
	for i := 0; i < 100; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("seeds 1 and 2 collide on %d/64 outputs", same)
	}
}

// TestStreamsIndependent checks the per-thread stream derivation used by
// the simulated GPU: streams of the same seed must not be shifted copies
// of each other over a modest window.
func TestStreamsIndependent(t *testing.T) {
	const window = 256
	base := NewStream(7, 0)
	seq := make([]uint32, window*3)
	for i := range seq {
		seq[i] = base.Uint32()
	}
	other := NewStream(7, 1)
	out := make([]uint32, window)
	for i := range out {
		out[i] = other.Uint32()
	}
	// Check the second stream's window against every lag of the first.
	for lag := 0; lag+window <= len(seq); lag++ {
		match := 0
		for i := 0; i < window; i++ {
			if out[i] == seq[lag+i] {
				match++
			}
		}
		if match > window/8 {
			t.Fatalf("stream 1 looks like stream 0 shifted by %d (%d/%d matches)", lag, match, window)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		g := r.Float64Open()
		if g <= 0 || g > 1 {
			t.Fatalf("Float64Open() = %v out of (0,1]", g)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := New(17)
	const buckets = 16
	const samples = 160000
	var hist [buckets]int
	for i := 0; i < samples; i++ {
		hist[int(r.Float64()*buckets)]++
	}
	expected := float64(samples) / buckets
	var chi2 float64
	for _, h := range hist {
		diff := float64(h) - expected
		chi2 += diff * diff / expected
	}
	// 15 degrees of freedom; 99.9th percentile ≈ 37.7.
	if chi2 > 40 {
		t.Errorf("chi-square = %.1f, far from uniform (hist=%v)", chi2, hist)
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := New(5)
	const n = 7
	const samples = 70000
	var hist [n]int
	for i := 0; i < samples; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d", n, v)
		}
		hist[v]++
	}
	expected := float64(samples) / n
	for v, h := range hist {
		if math.Abs(float64(h)-expected) > 5*math.Sqrt(expected) {
			t.Errorf("Intn bucket %d has %d samples, expected ≈ %.0f", v, h, expected)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	r := New(1)
	for _, n := range []int{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

func TestIntnOne(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Intn(1) != 0 {
			t.Fatal("Intn(1) != 0")
		}
	}
}

// TestQuickIntnInRange drives Intn with testing/quick over arbitrary seeds
// and bounds.
func TestQuickIntnInRange(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}
	property := func(seed uint64, bound uint16) bool {
		n := int(bound)%1000 + 1
		r := New(seed)
		for i := 0; i < 20; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestMathRandSource checks the generator plugs into math/rand as a
// Source.
func TestMathRandSource(t *testing.T) {
	rng := rand.New(New(8))
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := rng.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("math/rand over XORWOW returned %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("only %d of 10 values seen", len(seen))
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(4)
	const samples = 200000
	var sum, sumSq float64
	for i := 0; i < samples; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / samples
	variance := sumSq/samples - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %.4f, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %.4f, want ≈ 1", variance)
	}
}

func TestSplitMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~32 output bits on average.
	var totalFlips int
	const trials = 64
	for bit := 0; bit < trials; bit++ {
		s1 := uint64(0xDEADBEEF)
		s2 := s1 ^ (1 << uint(bit))
		a := SplitMix64(&s1)
		b := SplitMix64(&s2)
		totalFlips += popcount(a ^ b)
	}
	avg := float64(totalFlips) / trials
	if avg < 24 || avg > 40 {
		t.Errorf("SplitMix64 avalanche average = %.1f bits, want ≈ 32", avg)
	}
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestSeedResets(t *testing.T) {
	r := New(42)
	first := make([]uint32, 10)
	for i := range first {
		first[i] = r.Uint32()
	}
	r.Seed(42)
	for i := range first {
		if got := r.Uint32(); got != first[i] {
			t.Fatalf("after Seed(42), output %d = %#x, want %#x", i, got, first[i])
		}
	}
}

func BenchmarkUint32(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += r.Uint32()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}

// intnShuffle is the reference Fisher–Yates: one Intn(i+1) draw per
// position, i = len(seq)−1 … 1.
func intnShuffle[S ~int | ~int32](r *XORWOW, seq []S) {
	for i := len(seq) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		seq[i], seq[j] = seq[j], seq[i]
	}
}

// lemireRejections counts the draws Lemire's method rejects over one
// descending Fisher–Yates pass of length n, replayed on a copy of r.
func lemireRejections(r XORWOW, n int) int {
	rejected := 0
	for i := n - 1; i > 0; i-- {
		bound := uint32(i + 1)
		for uint32(uint64(r.Uint32())*uint64(bound)) < -bound%bound {
			rejected++
		}
	}
	return rejected
}

// shuffleMatchesIntn checks Shuffle against the Intn loop on one length
// and seed: identical permutation and identical generator state after.
func shuffleMatchesIntn[S ~int | ~int32](t *testing.T, n int, seed uint64) {
	t.Helper()
	got, want := make([]S, n), make([]S, n)
	for i := range got {
		got[i], want[i] = S(i), S(i)
	}
	rg, rw := New(seed), New(seed)
	Shuffle(rg, got)
	intnShuffle(rw, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%T n=%d seed=%d: position %d = %d, Intn loop gives %d", got, n, seed, i, got[i], want[i])
		}
	}
	if *rg != *rw {
		t.Fatalf("%T n=%d seed=%d: generator state %+v, Intn loop leaves %+v", got, n, seed, *rg, *rw)
	}
}

// TestShuffleMatchesIntnLoop pins Shuffle's bit-identity with the Intn
// loop it replaces, for both element types, over lengths large enough
// that Lemire's rejection branch fires.
func TestShuffleMatchesIntnLoop(t *testing.T) {
	rejected := 0
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1000, 1 << 17} {
		seeds := uint64(200)
		if n == 1<<17 {
			seeds = 8
			for s := uint64(0); s < seeds; s++ {
				rejected += lemireRejections(*New(s), n)
			}
		}
		for s := uint64(0); s < seeds; s++ {
			shuffleMatchesIntn[int](t, n, s)
			shuffleMatchesIntn[int32](t, n, s)
		}
	}
	if rejected == 0 {
		t.Fatal("no draw was rejected: the rejection branch went unexercised")
	}
	t.Logf("%d rejected draws at n=1<<17", rejected)
}

func BenchmarkShuffle(b *testing.B) {
	r := New(1)
	seq := make([]int, 100)
	for i := range seq {
		seq[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Shuffle(r, seq)
	}
}
