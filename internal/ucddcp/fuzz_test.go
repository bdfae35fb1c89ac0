package ucddcp_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/ucddcp"
	"repro/internal/xrand"
)

// ucddcpFromBytes decodes a fuzzer payload into a UCDDCP instance: five
// bytes per job (p, m, α, β, γ, with m folded into [1, p] and zero
// penalties allowed) and due date d = (ΣP + dRaw) mod (2·ΣP + 1), which
// covers [0, 2·ΣP] and maps small dRaw into the unrestricted band
// [ΣP, 2·ΣP]. A d below ΣP is set after construction, because
// problem.NewUCDDCP rejects restrictive due dates; the evaluators still
// have to price those schedules exactly. Returns nil when the payload is
// too short.
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
	in, err := problem.NewUCDDCP("fuzz", p, m, alpha, beta, gamma, int64(sum))
	if err != nil {
		panic(err) // valid by construction
	}
	in.D = int64((sum + dRaw%(2*sum+1)) % (2*sum + 1))
	return in
}

// referenceLimit bounds the number of compression vectors
// ReferenceOptimize enumerates per check (Π(P−M+1) over the jobs), so
// the exhaustive cross-check stays cheap inside the fuzz loop.
const referenceLimit = 4096

// referenceSize returns Π(P−M+1) over the instance's jobs, capped just
// above referenceLimit.
func referenceSize(in *problem.Instance) int {
	size := 1
	for _, j := range in.Jobs {
		size *= j.MaxCompression() + 1
		if size > referenceLimit {
			return referenceLimit + 1
		}
	}
	return size
}

// FuzzUCDDCPDeltaVsFull drives the controllable problem's incremental
// evaluator (core.NewDeltaEvaluator, whose Propose rescores the candidate
// with the two-phase core and whose Commit adopts the touched window)
// through a random walk of swap and segment-reversal moves. Every
// proposal must match the stateless full pass, and the schedule
// OptimizeSequence builds for the candidate must start at or after time 0
// and evaluate, from first principles, to exactly the reported cost. On
// small unrestricted instances (n ≤ 6, d ≥ ΣP) the cost must also equal
// the exhaustive optimum of ReferenceOptimize.
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
		checkRef := n <= 6 && in.D >= in.SumP() && referenceSize(in) <= referenceLimit
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
			cost := full.Cost(cand)
			if got := dl.Propose(cand, pos); got != cost {
				t.Fatalf("step %d: Propose=%d, full=%d (d=%d base=%v cand=%v pos=%v)",
					step, got, cost, in.D, base, cand, pos)
			}
			res := ucddcp.OptimizeSequence(in, cand)
			if res.Cost != cost || res.Start < 0 {
				t.Fatalf("step %d: OptimizeSequence cost=%d start=%d, full=%d (d=%d cand=%v)",
					step, res.Cost, res.Start, cost, in.D, cand)
			}
			if sc := problem.SequenceCost(in, cand, res.Start, res.X); sc != cost {
				t.Fatalf("step %d: schedule evaluates to %d, core reports %d (d=%d cand=%v start=%d x=%v)",
					step, sc, cost, in.D, cand, res.Start, res.X)
			}
			if checkRef {
				if ref := ucddcp.ReferenceOptimize(in, cand); ref.Cost != cost {
					t.Fatalf("step %d: core %d, exhaustive optimum %d (jobs=%+v d=%d cand=%v x=%v)",
						step, cost, ref.Cost, in.Jobs, in.D, cand, res.X)
				}
			}
			if rng.Intn(2) == 0 {
				dl.Commit()
				copy(base, cand)
			}
		}
	})
}
