package ucddcp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/ucddcp"
	"repro/internal/xrand"
)

// ucddcpFromBytes decodes a fuzzer payload into a valid UCDDCP instance:
// five bytes per job (p, m, α, β, γ, with m folded into [1, p] and zero
// penalties allowed), due date in the unrestricted band [ΣP, 2·ΣP].
// Returns nil when the payload is too short.
func ucddcpFromBytes(data []byte, dRaw uint64) *problem.Instance {
	n := len(data) / 5
	if n < 1 {
		return nil
	}
	if n > 20 {
		n = 20
	}
	p := make([]int, n)
	m := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	gamma := make([]int, n)
	var sum uint64
	for i := 0; i < n; i++ {
		p[i] = 1 + int(data[5*i]%20)
		m[i] = 1 + int(data[5*i+1])%p[i]
		alpha[i] = int(data[5*i+2] % 11)
		beta[i] = int(data[5*i+3] % 16)
		gamma[i] = int(data[5*i+4] % 11)
		sum += uint64(p[i])
	}
	in, err := problem.NewUCDDCP("fuzz", p, m, alpha, beta, gamma, int64(sum+dRaw%(sum+1)))
	if err != nil {
		panic(err) // valid by construction
	}
	return in
}

// FuzzUCDDCPDeltaVsFull drives the controllable problem's incremental
// evaluator (core.NewDeltaEvaluator, whose Propose rescores the candidate
// with the two-phase core and whose Commit adopts the touched window)
// through a random walk of swap and segment-reversal moves,
// cross-checking every proposal against the stateless full pass.
func FuzzUCDDCPDeltaVsFull(f *testing.F) {
	f.Add([]byte{6, 5, 7, 9, 5, 5, 5, 9, 5, 4, 2, 2, 6, 4, 3, 4, 3, 9, 3, 2, 4, 3, 3, 2, 1}, uint64(1), uint64(1))
	f.Add([]byte{20, 0, 0, 0, 10, 1, 0, 10, 15, 0}, uint64(5), uint64(9))
	f.Fuzz(func(t *testing.T, data []byte, dRaw, seed uint64) {
		in := ucddcpFromBytes(data, dRaw)
		if in == nil {
			t.Skip("payload too short for one job")
		}
		n := in.N()
		rng := xrand.New(seed | 1)
		dl := core.NewDeltaEvaluator(in)
		full := ucddcp.NewEvaluator(in)
		base := problem.IdentitySequence(n)
		if got, want := dl.Reset(base), full.Cost(base); got != want {
			t.Fatalf("Reset=%d, full=%d on identity", got, want)
		}
		cand := make([]int, n)
		for step := 0; step < 24; step++ {
			copy(cand, base)
			var pos []int
			if rng.Intn(2) == 0 || n < 3 {
				i, j := rng.Intn(n), rng.Intn(n)
				cand[i], cand[j] = cand[j], cand[i]
				pos = []int{i, j}
			} else {
				l := rng.Intn(n - 1)
				r := l + 1 + rng.Intn(n-l-1)
				for a, b := l, r; a < b; a, b = a+1, b-1 {
					cand[a], cand[b] = cand[b], cand[a]
				}
				for k := l; k <= r; k++ {
					pos = append(pos, k)
				}
			}
			if got, want := dl.Propose(cand, pos), full.Cost(cand); got != want {
				t.Fatalf("step %d: Propose=%d, full=%d (d=%d base=%v cand=%v pos=%v)",
					step, got, want, in.D, base, cand, pos)
			}
			if rng.Intn(2) == 0 {
				dl.Commit()
				copy(base, cand)
			}
		}
	})
}
