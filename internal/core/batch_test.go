package core

import (
	"testing"

	"repro/internal/cdd"
	"repro/internal/perm"
	"repro/internal/problem"
	"repro/internal/ucddcp"
	"repro/internal/xrand"
)

// randomBatchInstance builds a random valid instance of either kind:
// p ∈ [1,20], α ∈ [0,10], β ∈ [0,15]; for CDD d ∈ [0, 2·ΣP+1]
// (restrictive and unrestricted alike), for UCDDCP d ∈ [ΣP, 2·ΣP]
// (the kind's validity bound) with m ∈ [1,p] and γ ∈ [0,12].
func randomBatchInstance(t testing.TB, kind problem.Kind, n int, rng *xrand.XORWOW) *problem.Instance {
	t.Helper()
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	sum := 0
	for i := 0; i < n; i++ {
		p[i] = 1 + rng.Intn(20)
		alpha[i] = rng.Intn(11)
		beta[i] = rng.Intn(16)
		sum += p[i]
	}
	if kind == problem.CDD {
		in, err := problem.NewCDD("rand-cdd", p, alpha, beta, int64(rng.Intn(2*sum+2)))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	m := make([]int, n)
	gamma := make([]int, n)
	for i := 0; i < n; i++ {
		m[i] = 1 + rng.Intn(p[i])
		gamma[i] = rng.Intn(13)
	}
	d := int64(sum + rng.Intn(sum+1))
	in, err := problem.NewUCDDCP("rand-ucddcp", p, m, alpha, beta, gamma, d)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// singleFitness is the per-row reference the batch faces must
// reproduce bit for bit: OptimizeArrays on the evaluator's own SoA
// columns, returning cost and abstract op count.
func singleFitness(be *BatchEvaluator, seq []int) (int64, int) {
	s := be.SoA()
	comp := make([]int64, s.N)
	if s.Kind == problem.UCDDCP {
		c, _, _, ops := ucddcp.OptimizeArrays(seq, s.P, s.M, s.Alpha, s.Beta, s.Gamma, s.D, comp, nil)
		return c, ops
	}
	c, _, _, ops := cdd.OptimizeArrays(seq, s.P, s.Alpha, s.Beta, s.D, comp)
	return c, ops
}

// checkBatchAgainstSingle scores the given sequences through every face
// of the batch API — Cost, CostSeqs, CostRows, CostRows32 and
// FitnessRow32 — and requires each cost (and each FitnessRow32 op
// count) to equal the per-sequence single-row path.
func checkBatchAgainstSingle(t *testing.T, in *problem.Instance, seqs [][]int) {
	t.Helper()
	single := NewEvaluator(in)
	be := NewBatchEvaluator(in)
	b := len(seqs)
	n := in.N()
	rows := make([]int, b*n)
	rows32 := make([]int32, b*n)
	want := make([]int64, b)
	wantOps := make([]int, b)
	for i, seq := range seqs {
		copy(rows[i*n:(i+1)*n], seq)
		for k, v := range seq {
			rows32[i*n+k] = int32(v)
		}
		want[i] = single.Cost(seq)
		var c int64
		c, wantOps[i] = singleFitness(be, seq)
		if c != want[i] {
			t.Fatalf("singleFitness cost %d != Evaluator.Cost %d (internal reference mismatch)", c, want[i])
		}
		if got := be.Cost(seq); got != want[i] {
			t.Errorf("%s n=%d B=%d: Cost(seqs[%d]) = %d, want %d", in.Kind, n, b, i, got, want[i])
		}
	}
	got := make([]int64, b)
	be.CostSeqs(seqs, got)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s n=%d B=%d: CostSeqs[%d] = %d, want %d", in.Kind, n, b, i, got[i], want[i])
		}
	}
	clear(got)
	be.CostRows(rows, got)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s n=%d B=%d: CostRows[%d] = %d, want %d", in.Kind, n, b, i, got[i], want[i])
		}
	}
	clear(got)
	be.CostRows32(rows32, got)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s n=%d B=%d: CostRows32[%d] = %d, want %d", in.Kind, n, b, i, got[i], want[i])
		}
	}
	for i := range want {
		got, ops := be.FitnessRow32(rows32[i*n : (i+1)*n])
		if got != want[i] || ops != wantOps[i] {
			t.Errorf("%s n=%d B=%d: FitnessRow32(row %d) = (%d, %d ops), want (%d, %d ops)",
				in.Kind, n, b, i, got, ops, want[i], wantOps[i])
		}
	}
}

// TestBatchEvaluatorMatchesSingle is the bit-identity property over
// random instances of both kinds: every batch face must agree with the
// per-sequence evaluators for batch sizes covering the empty, the
// single (odd-tail only), the pure-pair and the mixed cases.
func TestBatchEvaluatorMatchesSingle(t *testing.T) {
	rng := xrand.New(11)
	for _, kind := range []problem.Kind{problem.CDD, problem.UCDDCP} {
		for _, n := range []int{1, 2, 3, 7, 24} {
			for trial := 0; trial < 6; trial++ {
				in := randomBatchInstance(t, kind, n, rng)
				for _, b := range []int{0, 1, 2, 3, 5} {
					seqs := make([][]int, b)
					for i := range seqs {
						seqs[i] = perm.Random(rng, n)
					}
					checkBatchAgainstSingle(t, in, seqs)
				}
			}
		}
	}
}

// TestBatchEvaluatorPaperExamples pins the batch path to the paper's
// worked examples (CDD 81, UCDDCP 77 on the identity sequence).
func TestBatchEvaluatorPaperExamples(t *testing.T) {
	for kind, want := range map[problem.Kind]int64{problem.CDD: 81, problem.UCDDCP: 77} {
		in := problem.PaperExample(kind)
		be := NewBatchEvaluator(in)
		seq := problem.IdentitySequence(5)
		if got := be.Cost(seq); got != want {
			t.Errorf("%s: batch Cost = %d, want %d", kind, got, want)
		}
		costs := make([]int64, 2)
		be.CostSeqs([][]int{seq, seq}, costs)
		if costs[0] != want || costs[1] != want {
			t.Errorf("%s: CostSeqs = %v, want both %d", kind, costs, want)
		}
	}
}

// TestBatchEvaluatorFor checks the adapter: a BatchEvaluator passes
// through identically, other evaluators get a snapshot of their
// instance.
func TestBatchEvaluatorFor(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	be := NewBatchEvaluator(in)
	if BatchEvaluatorFor(be) != be {
		t.Error("BatchEvaluatorFor should pass a BatchEvaluator through")
	}
	adapted := BatchEvaluatorFor(NewEvaluator(in))
	if adapted.Instance() != in {
		t.Error("adapted evaluator lost its instance")
	}
	if got := adapted.Cost(problem.IdentitySequence(5)); got != 81 {
		t.Errorf("adapted Cost = %d, want 81", got)
	}
}

// TestSoAInstanceSharing checks that evaluators built over one shared
// snapshot score independently (distinct scratch, same columns).
func TestSoAInstanceSharing(t *testing.T) {
	in := problem.PaperExample(problem.UCDDCP)
	soa := NewSoAInstance(in)
	e1 := NewBatchEvaluatorSoA(in, soa)
	e2 := NewBatchEvaluatorSoA(in, soa)
	if e1.SoA() != e2.SoA() {
		t.Fatal("evaluators should share the snapshot")
	}
	seq := problem.IdentitySequence(5)
	if a, b := e1.Cost(seq), e2.Cost(seq); a != b || a != 77 {
		t.Errorf("shared-snapshot costs %d, %d, want 77", a, b)
	}
}

// TestBatchEvaluatorRejectsBadIndex pins the batch path's memory-safety
// contract: a row holding a job index outside [0, n) must panic in the
// CDD row core's bounds check rather than score a foreign value.
func TestBatchEvaluatorRejectsBadIndex(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	be := NewBatchEvaluator(in)
	for _, bad := range [][]int{{0, 1, 2, 3, 5}, {0, 1, 2, 3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("row %v: batch cost did not panic", bad)
				}
			}()
			be.CostRows(bad, make([]int64, 1))
		}()
	}
}

// batchInstanceFromBytes decodes a fuzzer payload into a valid instance
// of either kind: five bytes per job (p, α, β, m-fraction, γ). The due
// date derives from dRaw — for CDD within [0, 2·ΣP+1] (restrictive
// allowed), for UCDDCP within [ΣP, 2·ΣP] (the kind requires d ≥ ΣP).
// Returns nil when the payload is too short for one job.
func batchInstanceFromBytes(kind problem.Kind, data []byte, dRaw uint64) *problem.Instance {
	n := len(data) / 5
	if n < 1 {
		return nil
	}
	if n > 16 {
		n = 16
	}
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	m := make([]int, n)
	gamma := make([]int, n)
	var sum uint64
	for i := 0; i < n; i++ {
		p[i] = 1 + int(data[5*i]%20)
		alpha[i] = int(data[5*i+1] % 11)
		beta[i] = int(data[5*i+2] % 16)
		m[i] = 1 + int(data[5*i+3])%p[i]
		gamma[i] = int(data[5*i+4] % 13)
		sum += uint64(p[i])
	}
	var in *problem.Instance
	var err error
	if kind == problem.CDD {
		in, err = problem.NewCDD("fuzz-cdd", p, alpha, beta, int64(dRaw%(2*sum+2)))
	} else {
		in, err = problem.NewUCDDCP("fuzz-ucddcp", p, m, alpha, beta, gamma, int64(sum+dRaw%(sum+1)))
	}
	if err != nil {
		panic(err) // valid by construction
	}
	return in
}

// FuzzBatchEvaluator feeds fuzzer-chosen instances of both kinds and
// random sequence batches through every batch face and cross-checks
// costs (and FitnessRow32 op counts) against the per-sequence
// OptimizeArrays path. The batch core promises bit-identical results;
// any divergence is a bug in the batch row kernels.
func FuzzBatchEvaluator(f *testing.F) {
	f.Add([]byte{6, 7, 9, 2, 4, 5, 9, 5, 1, 8, 2, 6, 4, 3, 0}, uint64(16), uint64(1))
	f.Add([]byte{1, 0, 1, 0, 2, 1, 1, 0, 1, 3, 20, 10, 15, 19, 7}, uint64(0), uint64(7))
	f.Add([]byte{5, 3, 3, 4, 9, 5, 3, 3, 2, 1}, uint64(15), uint64(5))
	f.Fuzz(func(t *testing.T, data []byte, dRaw, seed uint64) {
		rng := xrand.New(seed | 1)
		for _, kind := range []problem.Kind{problem.CDD, problem.UCDDCP} {
			in := batchInstanceFromBytes(kind, data, dRaw)
			if in == nil {
				t.Skip("payload too short for one job")
			}
			n := in.N()
			b := 1 + rng.Intn(5)
			seqs := make([][]int, b)
			for i := range seqs {
				seqs[i] = perm.Random(rng, n)
			}
			checkBatchAgainstSingle(t, in, seqs)
		}
	})
}
