package perm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/problem"
	"repro/internal/xrand"
)

func TestFisherYatesIsPermutation(t *testing.T) {
	r := xrand.New(1)
	for n := 0; n < 40; n++ {
		seq := problem.IdentitySequence(n)
		FisherYates(r, seq)
		if !problem.IsPermutation(seq) {
			t.Fatalf("n=%d: shuffle broke permutation: %v", n, seq)
		}
	}
}

// TestFisherYatesUniform checks that all 6 permutations of 3 elements are
// equally likely (the classic off-by-one in Fisher–Yates skews this).
func TestFisherYatesUniform(t *testing.T) {
	r := xrand.New(2)
	counts := map[[3]int]int{}
	const samples = 60000
	for i := 0; i < samples; i++ {
		seq := []int{0, 1, 2}
		FisherYates(r, seq)
		counts[[3]int{seq[0], seq[1], seq[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	expected := samples / 6
	for p, c := range counts {
		if c < expected*9/10 || c > expected*11/10 {
			t.Errorf("permutation %v count %d, expected ≈ %d", p, c, expected)
		}
	}
}

func TestSwapChangesExactlyTwo(t *testing.T) {
	r := xrand.New(3)
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(20)
		seq := Random(r, n)
		orig := append([]int(nil), seq...)
		Swap(r, seq)
		if !problem.IsPermutation(seq) {
			t.Fatal("swap broke permutation")
		}
		if d := Distance(orig, seq); d != 2 {
			t.Fatalf("swap changed %d positions, want 2", d)
		}
	}
}

func TestSwapTiny(t *testing.T) {
	r := xrand.New(4)
	seq := []int{0}
	Swap(r, seq) // must not panic
	if seq[0] != 0 {
		t.Error("swap corrupted singleton")
	}
	Swap[int](r, nil) // must not panic
}

func TestInsertPreservesPermutation(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(25)
		seq := Random(r, n)
		orig := append([]int(nil), seq...)
		Insert(r, seq)
		if !problem.IsPermutation(seq) {
			t.Fatalf("insert broke permutation: %v -> %v", orig, seq)
		}
		if Distance(orig, seq) == 0 {
			t.Fatal("insert was a no-op (from == to should be impossible)")
		}
	}
}

func TestReverseSegmentPreservesPermutation(t *testing.T) {
	r := xrand.New(6)
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(25)
		seq := Random(r, n)
		ReverseSegment(r, seq)
		if !problem.IsPermutation(seq) {
			t.Fatal("reverse broke permutation")
		}
	}
}

func TestPartialShuffle(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 300; trial++ {
		n := 4 + r.Intn(30)
		k := 2 + r.Intn(4) // Pert = 4 in the paper
		o := NewOps(n)
		seq := Random(r, n)
		orig := append([]int(nil), seq...)
		o.PartialShuffle(r, seq, k)
		if !problem.IsPermutation(seq) {
			t.Fatalf("partial shuffle broke permutation: %v", seq)
		}
		if d := Distance(orig, seq); d > k {
			t.Fatalf("partial shuffle of size %d changed %d positions", k, d)
		}
	}
}

func TestPartialShuffleClampAndDegenerate(t *testing.T) {
	r := xrand.New(8)
	o := NewOps(5)
	seq := Random(r, 5)
	o.PartialShuffle(r, seq, 50) // k > n clamps to full shuffle
	if !problem.IsPermutation(seq) {
		t.Fatal("clamped shuffle broke permutation")
	}
	before := append([]int(nil), seq...)
	o.PartialShuffle(r, seq, 1) // k < 2 is a no-op
	if Distance(before, seq) != 0 {
		t.Error("k=1 shuffle changed the sequence")
	}
}

func TestOnePointCrossover(t *testing.T) {
	r := xrand.New(9)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(25)
		o := NewOps(n)
		a, b := Random(r, n), Random(r, n)
		dst := make([]int, n)
		OnePoint(o, r, dst, a, b)
		if !problem.IsPermutation(dst) {
			t.Fatalf("one-point produced non-permutation: a=%v b=%v dst=%v", a, b, dst)
		}
	}
}

// TestOnePointStructure pins the semantics: with a forced cut (via a
// deterministic Rand), dst = a's prefix + b-order remainder.
func TestOnePointStructure(t *testing.T) {
	o := NewOps(6)
	a := []int{5, 4, 3, 2, 1, 0}
	b := []int{0, 1, 2, 3, 4, 5}
	dst := make([]int, 6)
	OnePoint(o, fixedRand{3}, dst, a, b)
	want := []int{5, 4, 3, 0, 1, 2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

func TestTwoPointCrossover(t *testing.T) {
	r := xrand.New(10)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(25)
		o := NewOps(n)
		a, b := Random(r, n), Random(r, n)
		dst := make([]int, n)
		TwoPoint(o, r, dst, a, b)
		if !problem.IsPermutation(dst) {
			t.Fatalf("two-point produced non-permutation: a=%v b=%v dst=%v", a, b, dst)
		}
	}
}

// TestTwoPointStructure pins the semantics with forced cuts c1=2, c2=4:
// dst keeps a[2:4] in place and fills around it in b's order.
func TestTwoPointStructure(t *testing.T) {
	o := NewOps(6)
	a := []int{5, 4, 3, 2, 1, 0}
	b := []int{0, 1, 2, 3, 4, 5}
	dst := make([]int, 6)
	TwoPoint(o, seqRand{[]int{2, 4}}, dst, a, b)
	// a[2:4] = {3,2} stays at positions 2..3; the rest of b's order
	// (0,1,4,5) fills positions 0,1,4,5.
	want := []int{0, 1, 3, 2, 4, 5}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
}

// TestCrossoversQuick property-checks both crossovers over random inputs
// including identical parents (dst must equal the parents then).
func TestCrossoversQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}
	property := func(seed uint64, nRaw uint8) bool {
		n := 1 + int(nRaw%20)
		r := xrand.New(seed)
		o := NewOps(n)
		a := Random(r, n)
		dst := make([]int, n)
		OnePoint(o, r, dst, a, a)
		if Distance(dst, a) != 0 {
			return false
		}
		TwoPoint(o, r, dst, a, a)
		return Distance(dst, a) == 0
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestOpsSizeMismatchPanics(t *testing.T) {
	o := NewOps(5)
	defer func() {
		if recover() == nil {
			t.Error("size mismatch did not panic")
		}
	}()
	o.PartialShuffle(xrand.New(1), make([]int, 7), 3)
}

func TestDistance(t *testing.T) {
	if d := Distance([]int{1, 2, 3}, []int{1, 2, 3}); d != 0 {
		t.Errorf("identical distance = %d", d)
	}
	if d := Distance([]int{1, 2, 3}, []int{3, 2, 1}); d != 2 {
		t.Errorf("distance = %d, want 2", d)
	}
}

// fixedRand always returns the same value (clamped) — for pinning cuts.
type fixedRand struct{ v int }

func (f fixedRand) Intn(n int) int {
	if f.v >= n {
		return n - 1
	}
	return f.v
}

// seqRand returns scripted values in order.
type seqRand struct{ vals []int }

func (s seqRand) Intn(n int) int {
	if len(s.vals) == 0 {
		return 0
	}
	v := s.vals[0]
	copy(s.vals, s.vals[1:])
	s.vals = s.vals[:len(s.vals)-1]
	if v >= n {
		v = n - 1
	}
	return v
}

func BenchmarkPartialShuffle(b *testing.B) {
	r := xrand.New(1)
	o := NewOps(1000)
	seq := Random(r, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.PartialShuffle(r, seq, 4)
	}
}

func BenchmarkTwoPoint(b *testing.B) {
	r := xrand.New(1)
	o := NewOps(1000)
	a, bb := Random(r, 1000), Random(r, 1000)
	dst := make([]int, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		TwoPoint(o, r, dst, a, bb)
	}
}
