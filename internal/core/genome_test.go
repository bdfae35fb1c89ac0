package core

import (
	"fmt"
	"testing"

	"repro/internal/perm"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// genInstance builds a random valid instance of the given kind on m
// machines (UCDDCP gets d ≥ ΣP so every possible machine segment stays
// unrestricted).
func genInstance(t *testing.T, r *xrand.XORWOW, kind problem.Kind, n, m int) *problem.Instance {
	t.Helper()
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	var sum int64
	for i := 0; i < n; i++ {
		p[i] = 1 + r.Intn(12)
		alpha[i] = r.Intn(8)
		beta[i] = r.Intn(8)
		sum += int64(p[i])
	}
	var in *problem.Instance
	var err error
	switch kind {
	case problem.UCDDCP:
		mi := make([]int, n)
		gamma := make([]int, n)
		for i := 0; i < n; i++ {
			mi[i] = 1 + r.Intn(p[i])
			gamma[i] = r.Intn(6)
		}
		in, err = problem.NewUCDDCP("gen-ucddcp", p, mi, alpha, beta, gamma, sum+int64(r.Intn(int(sum)+1)))
	case problem.EARLYWORK:
		in, err = problem.NewEarlyWork("gen-ew", p, m, 1+int64(r.Intn(int(sum))))
	default:
		in, err = problem.NewCDD("gen-cdd", p, alpha, beta, int64(r.Intn(int(2*sum))))
	}
	if err != nil {
		t.Fatal(err)
	}
	in.Machines = m
	return in
}

func randomGenome(r *xrand.XORWOW, L int) []int {
	g := problem.IdentitySequence(L)
	perm.FisherYates(r, g)
	return g
}

// TestGenomeCostMatchesSchedule cross-checks the genome scoring core
// against the materialized schedule on every kind and machine count: the
// segment-sum cost must equal the exact objective of the fully timed
// schedule, and the schedule must validate.
func TestGenomeCostMatchesSchedule(t *testing.T) {
	r := xrand.New(21)
	kinds := []problem.Kind{problem.CDD, problem.UCDDCP, problem.EARLYWORK}
	for trial := 0; trial < 300; trial++ {
		kind := kinds[trial%3]
		n := 1 + r.Intn(7)
		m := 1 + r.Intn(3)
		in := genInstance(t, r, kind, n, m)
		s := NewSoAInstance(in)
		comp := make([]int64, s.N)
		genome := randomGenome(r, in.GenomeLen())

		got := GenomeCostArrays(genome, s, comp)
		fit, ops := GenomeFitnessArrays(genome, s, comp)
		if fit != got {
			t.Fatalf("%s m=%d: fitness %d != cost %d", kind, m, fit, got)
		}
		if ops <= 0 {
			t.Fatalf("%s m=%d: non-positive op count %d", kind, m, ops)
		}

		sched := GenomeSchedule(in, genome)
		if err := sched.Validate(in); err != nil {
			t.Fatalf("%s m=%d: schedule invalid: %v (genome %v)", kind, m, err, genome)
		}
		if want := sched.Cost(in); got != want {
			t.Fatalf("%s m=%d: genome cost %d != schedule cost %d (genome %v)", kind, m, got, want, genome)
		}
	}
}

// TestMachineDeltaMatchesFull drives the incremental evaluator through
// a propose/commit walk of assignment moves and window rewrites; every
// proposal must price exactly like a from-scratch genome evaluation,
// both when committed and when abandoned.
func TestMachineDeltaMatchesFull(t *testing.T) {
	r := xrand.New(33)
	kinds := []problem.Kind{problem.CDD, problem.UCDDCP, problem.EARLYWORK}
	for trial := 0; trial < 60; trial++ {
		kind := kinds[trial%3]
		n := 2 + r.Intn(6)
		m := 1 + r.Intn(3)
		if kind != problem.EARLYWORK && m == 1 {
			m = 2 // the delta evaluator targets genome-coded instances
		}
		in := genInstance(t, r, kind, n, m)
		e := NewMachineDeltaEvaluator(in)
		L := in.GenomeLen()
		base := randomGenome(r, L)
		total := e.Reset(base)
		if full := e.Cost(base); full != total {
			t.Fatalf("%s m=%d: Reset %d != full %d", kind, m, total, full)
		}
		ops := perm.NewOps(L)
		cand := make([]int, L)
		for step := 0; step < 40; step++ {
			copy(cand, base)
			var positions []int
			switch step % 3 {
			case 0:
				lo, hi := perm.JobReassign(r, cand, n)
				for p := lo; p <= hi; p++ {
					positions = append(positions, p)
				}
			case 1:
				i, j := ops.CrossMachineSwap(r, cand, n)
				if i != j {
					positions = []int{i, j}
				}
			default:
				if L >= 2 {
					i := r.Intn(L - 1)
					cand[i], cand[i+1] = cand[i+1], cand[i]
					positions = []int{i, i + 1}
				}
			}
			got := e.Propose(cand, positions)
			want := GenomeCostArrays(cand, e.soa, make([]int64, n))
			if got != want {
				t.Fatalf("%s m=%d step %d: Propose %d != full %d\nbase %v\ncand %v (positions %v)",
					kind, m, step, got, want, base, cand, positions)
			}
			if step%2 == 0 {
				e.Commit()
				copy(base, cand)
				total = got
			} else if again := e.Propose(cand, positions); again != want {
				// An abandoned proposal must not corrupt the cache.
				t.Fatalf("%s m=%d step %d: re-Propose after abandon %d != %d", kind, m, step, again, want)
			}
		}
		if full := e.Cost(base); full != total {
			t.Fatalf("%s m=%d: committed total %d drifted from full %d", kind, m, total, full)
		}
	}
}

// TestMachinesZeroOneBitIdentical pins the reduction guarantee at the
// evaluator level: an instance with the Machines zero value and its
// explicit Machines = 1 clone produce identical costs and schedules —
// the generalized stack collapses onto the paper's single-machine path.
func TestMachinesZeroOneBitIdentical(t *testing.T) {
	r := xrand.New(55)
	for trial := 0; trial < 60; trial++ {
		kind := []problem.Kind{problem.CDD, problem.UCDDCP}[trial%2]
		n := 1 + r.Intn(7)
		zero := genInstance(t, r, kind, n, 1)
		zero.Machines = 0
		one := zero.Clone()
		one.Machines = 1
		seq := randomGenome(r, n)
		ez, eo := NewEvaluator(zero), NewEvaluator(one)
		if cz, co := ez.Cost(seq), eo.Cost(seq); cz != co {
			t.Fatalf("%s: Machines=0 cost %d != Machines=1 cost %d", kind, cz, co)
		}
		sz, so := GenomeSchedule(zero, seq), GenomeSchedule(one, seq)
		if fmt.Sprintf("%+v", sz) != fmt.Sprintf("%+v", so) {
			t.Fatalf("%s: schedules differ:\nMachines=0 %+v\nMachines=1 %+v", kind, sz, so)
		}
	}
}
