// Package perm provides the permutation machinery shared by all
// metaheuristics in this repository: Fisher–Yates shuffling (the paper's
// neighborhood generator, Section VI-B), the partial-shuffle perturbation
// of size Pert, the swap move used as the DPSO velocity operator F1, and
// the one-point / two-point order-preserving crossovers used as the DPSO
// cognition (F2) and social (F3) operators after Pan et al.
package perm

import "repro/internal/xrand"

// Rand is the source of randomness the moves and crossovers draw from.
// Every caller passes an *xrand.XORWOW; tests script Intn to pin the
// crossover cut points. The shuffles take the XORWOW itself.
type Rand interface {
	// Intn returns a uniform integer in [0,n); n must be positive.
	Intn(n int) int
}

// FisherYates shuffles seq uniformly in place using the classic
// Fisher–Yates algorithm (CLRS, as cited by the paper); see xrand.Shuffle.
func FisherYates(r *xrand.XORWOW, seq []int) {
	xrand.Shuffle(r, seq)
}

// Random returns a fresh uniform random permutation of 0..n-1.
func Random(r *xrand.XORWOW, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i
	}
	FisherYates(r, seq)
	return seq
}

// Swap exchanges two distinct random positions of seq in place. It is the
// DPSO velocity operator F1. Sequences of length < 2 are left unchanged.
// It returns the two touched positions so incremental evaluators can price
// the move in O(1); for length < 2 both are 0 (nothing changed). Like the
// crossovers it serves the host's []int rows and the simulated device's
// []int32 rows.
func Swap[S ~int | ~int32](r Rand, seq []S) (i, j int) {
	n := len(seq)
	if n < 2 {
		return 0, 0
	}
	i = r.Intn(n)
	j = r.Intn(n - 1)
	if j >= i {
		j++
	}
	seq[i], seq[j] = seq[j], seq[i]
	return i, j
}

// Insert removes the element at a random position and reinserts it at
// another random position, shifting the elements in between. It is an
// additional neighborhood move offered to the metaheuristics. It returns
// the inclusive window [lo, hi] of positions the move may have changed;
// for length < 2 both are 0 (nothing changed).
func Insert(r Rand, seq []int) (lo, hi int) {
	n := len(seq)
	if n < 2 {
		return 0, 0
	}
	from := r.Intn(n)
	to := r.Intn(n - 1)
	if to >= from {
		to++
	}
	v := seq[from]
	if from < to {
		copy(seq[from:to], seq[from+1:to+1])
	} else {
		copy(seq[to+1:from+1], seq[to:from])
	}
	seq[to] = v
	if from < to {
		return from, to
	}
	return to, from
}

// ReverseSegment reverses a random contiguous segment of seq in place
// (the classic 2-opt style move). It returns the inclusive window [lo, hi]
// of positions the move may have changed; for length < 2 both are 0
// (nothing changed).
func ReverseSegment(r Rand, seq []int) (lo, hi int) {
	n := len(seq)
	if n < 2 {
		return 0, 0
	}
	i := r.Intn(n)
	j := r.Intn(n)
	if i > j {
		i, j = j, i
	}
	lo, hi = i, j
	for i < j {
		seq[i], seq[j] = seq[j], seq[i]
		i++
		j--
	}
	return lo, hi
}

// Ops bundles scratch buffers so the compound operators (PartialShuffle
// and the order crossovers) run without allocating in hot loops. An Ops
// value serves sequences of exactly the length it was created for and is
// not safe for concurrent use.
type Ops struct {
	n    int
	idx  []int
	vals []int
	used []bool
}

// NewOps returns operator scratch for sequences of length n.
func NewOps(n int) *Ops {
	o := &Ops{n: n}
	o.idx = make([]int, n)
	o.vals = make([]int, n)
	o.used = make([]bool, n)
	for i := range o.idx {
		o.idx[i] = i
	}
	return o
}

// PartialShuffle applies the paper's perturbation: select k distinct
// random positions of seq and shuffle the jobs occupying them with
// Fisher–Yates, keeping all other positions fixed. k is clamped to
// [0, len(seq)]. It returns the selected positions (aliasing internal
// scratch, valid until the next call) so incremental evaluators can price
// the move in O(k); a clamped k < 2 yields an empty slice.
func (o *Ops) PartialShuffle(r *xrand.XORWOW, seq []int, k int) []int {
	n := len(seq)
	if n != o.n {
		panic("perm: sequence length differs from Ops size")
	}
	if k > n {
		k = n
	}
	if k < 2 {
		return o.idx[:0]
	}
	// Partial Fisher–Yates over the persistent index buffer selects k
	// distinct positions in O(k).
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		o.idx[i], o.idx[j] = o.idx[j], o.idx[i]
	}
	pos := o.idx[:k]
	vals := o.vals[:k]
	for i, p := range pos {
		vals[i] = seq[p]
	}
	FisherYates(r, vals)
	for i, p := range pos {
		seq[p] = vals[i]
	}
	return pos
}

// OnePoint performs the one-point order crossover F2 of the DPSO: dst
// receives a's prefix up to a random cut and the remaining jobs in the
// order they appear in b. dst must not alias a or b. o supplies the
// used-markers.
func OnePoint[S ~int | ~int32](o *Ops, r Rand, dst, a, b []S) {
	n := len(a)
	used := o.markers(n, len(b), len(dst))
	cut := 0
	if n > 0 {
		cut = r.Intn(n + 1)
	}
	copy(dst[:cut], a[:cut])
	for _, v := range a[:cut] {
		used[v] = true
	}
	w := cut
	for _, v := range b {
		if !used[v] {
			dst[w] = v
			w++
		}
	}
}

// TwoPoint performs the two-point order crossover F3 of the DPSO: dst
// receives a's segment [c1,c2) in place and all other jobs in the order
// they appear in b. dst must not alias a or b. o supplies the
// used-markers.
func TwoPoint[S ~int | ~int32](o *Ops, r Rand, dst, a, b []S) {
	n := len(a)
	used := o.markers(n, len(b), len(dst))
	if n == 0 {
		return
	}
	c1 := r.Intn(n + 1)
	c2 := r.Intn(n + 1)
	if c1 > c2 {
		c1, c2 = c2, c1
	}
	copy(dst[c1:c2], a[c1:c2])
	for _, v := range a[c1:c2] {
		used[v] = true
	}
	w := 0
	for _, v := range b {
		if used[v] {
			continue
		}
		if w == c1 {
			w = c2
		}
		dst[w] = v
		w++
	}
}

// markers checks that a crossover's three sequences have the Ops length
// and returns the used-markers, cleared.
func (o *Ops) markers(a, b, dst int) []bool {
	if a != o.n || b != o.n || dst != o.n {
		panic("perm: sequence length differs from Ops size")
	}
	clear(o.used)
	return o.used
}

// Distance returns the number of positions at which two sequences differ
// (Hamming distance on permutations), a cheap diversity metric used by
// the synchronous driver and by tests.
func Distance(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] != b[i] {
			d++
		}
	}
	return d
}
