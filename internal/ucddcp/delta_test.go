package ucddcp_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/ucddcp"
)

// The delta tests drive core.NewDeltaEvaluator, the single-machine UCDDCP
// propose/commit path every SA chain uses, against the stateless
// ucddcp.Evaluator on the same candidates.

// applyMove mutates cand with one random move from the metaheuristics'
// move families and returns the touched positions (possibly containing
// duplicates and no-op entries).
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
	case 1: // k-position shuffle
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
	case 2: // insert
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
	case 3: // reverse
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
	default: // wholesale reshuffle (fallback path)
		rng.Shuffle(n, func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		scratch = scratch[:0]
		for p := 0; p < n; p++ {
			scratch = append(scratch, p)
		}
		return scratch
	}
}

// TestDeltaMatchesFullRandomMoves drives the propose/commit protocol with
// randomized move sequences and asserts every proposed cost is
// bit-identical to a scratch evaluation of the candidate.
func TestDeltaMatchesFullRandomMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(48)
		in := ucddcp.RandomInstance(rng, n, 6)
		full := ucddcp.NewEvaluator(in)
		de := core.NewDeltaEvaluator(in)

		base := ucddcp.RandomSequence(rng, n)
		if got, want := de.Reset(base), full.Cost(base); got != want {
			t.Fatalf("trial %d: Reset cost %d, full %d", trial, got, want)
		}
		cand := make([]int, n)
		scratch := make([]int, 0, n)
		for step := 0; step < 100; step++ {
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
			}
		}
		probe := ucddcp.RandomSequence(rng, n)
		if got, want := de.Cost(probe), full.Cost(probe); got != want {
			t.Fatalf("trial %d: stateless Cost %d, full %d", trial, got, want)
		}
	}
}

// TestDeltaDegenerateDueDates exercises the r = 0 regimes the paper's
// UCDDCP domain excludes but the evaluator handles: restrictive due dates
// (d < ΣP) down to d = 0, where the whole sequence is the tardy side.
func TestDeltaDegenerateDueDates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(16)
		p := make([]int, n)
		m := make([]int, n)
		alpha := make([]int, n)
		beta := make([]int, n)
		gamma := make([]int, n)
		var sum int64
		for i := 0; i < n; i++ {
			p[i] = 2 + rng.Intn(8)
			m[i] = 1 + rng.Intn(p[i])
			alpha[i] = rng.Intn(9)
			beta[i] = rng.Intn(9)
			gamma[i] = rng.Intn(6)
			sum += int64(p[i])
		}
		for _, d := range []int64{0, 1, sum / 2, sum, sum + 5} {
			// Restrictive due dates are outside problem.NewUCDDCP's domain
			// (it enforces d ≥ ΣP), so assemble the instance directly.
			in := &problem.Instance{Name: "deg", Kind: problem.UCDDCP, D: d, Jobs: make([]problem.Job, n)}
			for i := 0; i < n; i++ {
				in.Jobs[i] = problem.Job{P: p[i], M: m[i], Alpha: alpha[i], Beta: beta[i], Gamma: gamma[i]}
			}
			full := ucddcp.NewEvaluator(in)
			de := core.NewDeltaEvaluator(in)
			base := ucddcp.RandomSequence(rng, n)
			de.Reset(base)
			cand := make([]int, n)
			scratch := make([]int, 0, n)
			for step := 0; step < 30; step++ {
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

// TestDeltaInt32Parity cross-checks the device-index instantiation of
// OptimizeArrays ([]int32 rows, as the simulated GPU kernels score them)
// against the host instantiation ([]int) along the same random walk the
// delta tests take: cost, start, due-date position and op count must all
// agree.
func TestDeltaInt32Parity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(20)
		in := ucddcp.RandomInstance(rng, n, 5)
		p, m, alpha, beta, gamma := ucddcp.ParamArrays(in)
		comp := make([]int64, n)
		eval := func(seq []int, seq32 []int32) (host, dev [4]int64) {
			c, s, r, o := ucddcp.OptimizeArrays(seq, p, m, alpha, beta, gamma, in.D, comp, nil)
			host = [4]int64{c, s, int64(r), int64(o)}
			c, s, r, o = ucddcp.OptimizeArrays(seq32, p, m, alpha, beta, gamma, in.D, comp, nil)
			dev = [4]int64{c, s, int64(r), int64(o)}
			return host, dev
		}
		base := ucddcp.RandomSequence(rng, n)
		cand := make([]int, n)
		cand32 := make([]int32, n)
		for i, v := range base {
			cand32[i] = int32(v)
		}
		if h, d := eval(base, cand32); h != d {
			t.Fatalf("trial %d: base host %v dev %v", trial, h, d)
		}
		scratch := make([]int, 0, n)
		for step := 0; step < 50; step++ {
			copy(cand, base)
			applyMove(rng, cand, scratch)
			for i, v := range cand {
				cand32[i] = int32(v)
			}
			if h, d := eval(cand, cand32); h != d {
				t.Fatalf("trial %d step %d: host (cost, start, r, ops) %v dev %v", trial, step, h, d)
			}
			if rng.Intn(2) == 0 {
				copy(base, cand)
			}
		}
	}
}
