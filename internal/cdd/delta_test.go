package cdd

import (
	"math/rand"
	"testing"

	"repro/internal/problem"
)

// applyMove mutates cand (a copy of base) with one random move drawn from
// the same move families the metaheuristics use, returning the list of
// positions the move may have touched (possibly with duplicates and
// no-op entries — the delta evaluator must tolerate both).
func applyMove(rng *rand.Rand, cand []int, scratch []int) []int {
	n := len(cand)
	if n == 1 {
		return scratch[:0]
	}
	switch rng.Intn(5) {
	case 0: // swap
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		cand[i], cand[j] = cand[j], cand[i]
		return append(scratch[:0], i, j)
	case 1: // k-position shuffle (the SA default neighbourhood)
		k := 2 + rng.Intn(3)
		if k > n {
			k = n
		}
		pos := rng.Perm(n)[:k]
		first := cand[pos[0]]
		for t := 0; t < k-1; t++ {
			cand[pos[t]] = cand[pos[t+1]]
		}
		cand[pos[k-1]] = first
		return append(scratch[:0], pos...)
	case 2: // insert (remove at i, reinsert at j)
		i, j := rng.Intn(n), rng.Intn(n)
		v := cand[i]
		if i < j {
			copy(cand[i:j], cand[i+1:j+1])
		} else {
			copy(cand[j+1:i+1], cand[j:i])
		}
		cand[j] = v
		lo, hi := i, j
		if lo > hi {
			lo, hi = hi, lo
		}
		scratch = scratch[:0]
		for p := lo; p <= hi; p++ {
			scratch = append(scratch, p)
		}
		return scratch
	case 3: // reverse a segment
		i, j := rng.Intn(n), rng.Intn(n)
		if i > j {
			i, j = j, i
		}
		for l, r := i, j; l < r; l, r = l+1, r-1 {
			cand[l], cand[r] = cand[r], cand[l]
		}
		scratch = scratch[:0]
		for p := i; p <= j; p++ {
			scratch = append(scratch, p)
		}
		return scratch
	default: // wholesale reshuffle (population crossover regime → fallback)
		rng.Shuffle(n, func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		scratch = scratch[:0]
		for p := 0; p < n; p++ {
			scratch = append(scratch, p)
		}
		return scratch
	}
}

// TestDeltaMatchesFullRandomMoves drives the propose/commit protocol with
// long randomized move sequences on random instances and asserts that every
// proposed cost is bit-identical to a scratch evaluation of the candidate,
// and that the committed cache never drifts from the true sequence state.
func TestDeltaMatchesFullRandomMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(64)
		in := randomInstance(rng, n)
		full := NewEvaluator(in)
		de := NewDeltaEvaluator(in)

		base := randomSequence(rng, n)
		if got, want := de.Reset(base), full.Cost(base); got != want {
			t.Fatalf("trial %d: Reset cost %d, full %d", trial, got, want)
		}
		cand := make([]int, n)
		scratch := make([]int, 0, n)
		for step := 0; step < 120; step++ {
			copy(cand, base)
			touched := applyMove(rng, cand, scratch)
			got := de.Propose(cand, touched)
			want := full.Cost(cand)
			if got != want {
				t.Fatalf("trial %d step %d (n=%d, d=%d): Propose %d, full %d\nbase=%v\ncand=%v\ntouched=%v",
					trial, step, n, in.D, got, want, base, cand, touched)
			}
			if rng.Intn(2) == 0 {
				de.Commit()
				copy(base, cand)
				// After a commit, a no-change proposal must reproduce the
				// committed cost from the (now updated) cache.
				if again := de.Propose(base, touched); again != want {
					t.Fatalf("trial %d step %d: post-commit Propose %d, want %d", trial, step, again, want)
				}
			}
		}
		// Stateless Cost must be usable at any point without disturbing
		// the cache.
		probe := randomSequence(rng, n)
		if got, want := de.Cost(probe), full.Cost(probe); got != want {
			t.Fatalf("trial %d: stateless Cost %d, full %d", trial, got, want)
		}
		copy(cand, base)
		touched := applyMove(rng, cand, scratch)
		if got, want := de.Propose(cand, touched), full.Cost(cand); got != want {
			t.Fatalf("trial %d: post-probe Propose %d, full %d", trial, got, want)
		}
	}
}

// TestDeltaEdgeDueDates pins the boundary regimes: d = 0 (every job tardy,
// τ = 0), d = ΣP (unrestricted — the whole schedule fits before the due
// date) and beyond.
func TestDeltaEdgeDueDates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(16)
		p := make([]int, n)
		alpha := make([]int, n)
		beta := make([]int, n)
		var sum int64
		for i := range p {
			p[i] = 1 + rng.Intn(9)
			alpha[i] = rng.Intn(8)
			beta[i] = rng.Intn(8)
			sum += int64(p[i])
		}
		for _, d := range []int64{0, 1, sum, sum + 7} {
			in, err := problem.NewCDD("edge", p, alpha, beta, d)
			if err != nil {
				t.Fatal(err)
			}
			full := NewEvaluator(in)
			de := NewDeltaEvaluator(in)
			base := randomSequence(rng, n)
			de.Reset(base)
			cand := make([]int, n)
			scratch := make([]int, 0, n)
			for step := 0; step < 40; step++ {
				copy(cand, base)
				touched := applyMove(rng, cand, scratch)
				if got, want := de.Propose(cand, touched), full.Cost(cand); got != want {
					t.Fatalf("d=%d n=%d step %d: Propose %d, full %d\ncand=%v", d, n, step, got, want, cand)
				}
				if rng.Intn(3) != 0 {
					de.Commit()
					copy(base, cand)
				}
			}
		}
	}
}

// TestDeltaMaterializeComp checks that the pending candidate's completion
// times are exact, on both the windowed path (read through compAt) and the
// full-pass path (held in fullComp).
func TestDeltaMaterializeComp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(32)
		in := randomInstance(rng, n)
		p, alpha, beta := ParamArrays(in)
		dl := NewDelta[int](p, alpha, beta, in.D)
		base := randomSequence(rng, n)
		dl.Reset(base)
		cand := make([]int, n)
		scratch := make([]int, 0, n)
		for step := 0; step < 30; step++ {
			copy(cand, base)
			touched := applyMove(rng, cand, scratch)
			dl.Propose(cand, touched)
			var tm int64
			for pos, job := range cand {
				tm += p[job]
				got := dl.fullComp[pos]
				if !dl.pendFull {
					got = dl.compAt(pos)
				}
				if got != tm {
					t.Fatalf("trial %d step %d (full=%v): comp[%d] = %d, want %d", trial, step, dl.pendFull, pos, got, tm)
				}
			}
			if rng.Intn(2) == 0 {
				dl.Commit()
				copy(base, cand)
			}
		}
	}
}

// TestDeltaInt32Parity instantiates the generic core with the device index
// type and cross-checks it against the int instantiation move for move.
func TestDeltaInt32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(24)
		in := randomInstance(rng, n)
		p, alpha, beta := ParamArrays(in)
		dlHost := NewDelta[int](p, alpha, beta, in.D)
		dlDev := NewDelta[int32](p, alpha, beta, in.D)
		base := randomSequence(rng, n)
		base32 := make([]int32, n)
		for i, v := range base {
			base32[i] = int32(v)
		}
		if h, d := dlHost.Reset(base), dlDev.Reset(base32); h != d {
			t.Fatalf("trial %d: Reset host %d dev %d", trial, h, d)
		}
		cand := make([]int, n)
		cand32 := make([]int32, n)
		scratch := make([]int, 0, n)
		for step := 0; step < 60; step++ {
			copy(cand, base)
			touched := applyMove(rng, cand, scratch)
			for i, v := range cand {
				cand32[i] = int32(v)
			}
			h := dlHost.Propose(cand, touched)
			d := dlDev.Propose(cand32, touched)
			if h != d {
				t.Fatalf("trial %d step %d: Propose host %d dev %d", trial, step, h, d)
			}
			if rng.Intn(2) == 0 {
				dlHost.Commit()
				dlDev.Commit()
				copy(base, cand)
			}
		}
	}
}
