package parallel

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/orlib"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/ucddcp"
)

func smallSA() sa.Config {
	cfg := sa.DefaultConfig()
	cfg.Iterations = 60
	cfg.TempSamples = 50
	return cfg
}

func benchInstanceCDD(n int) *problem.Instance {
	ins, err := orlib.BenchmarkCDD(n, 1, 7)
	if err != nil {
		panic(err)
	}
	return ins[2] // h = 0.6
}

func benchInstanceUCDDCP(n int) *problem.Instance {
	ins, err := orlib.BenchmarkUCDDCP(n, 1, 7)
	if err != nil {
		panic(err)
	}
	return ins[0]
}

// deviceFitness scores seq as the fitness kernels do: one int32 row
// through the core row dispatch.
func deviceFitness(in *problem.Instance, seq []int) int64 {
	row := make([]int32, len(seq))
	for i, v := range seq {
		row[i] = int32(v)
	}
	cost, _ := core.NewBatchEvaluator(in).FitnessRow32(row)
	return cost
}

// TestDeviceFitnessParityCDD pins the fitness kernels' row dispatch to
// the host evaluator, bit for bit, over random instances and sequences.
func TestDeviceFitnessParityCDD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		ins, err := orlib.BenchmarkCDD(n, 1, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		in := ins[rng.Intn(len(ins))]
		seq := problem.IdentitySequence(n)
		rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		got := deviceFitness(in, seq)
		if want := cdd.OptimizeSequence(in, seq).Cost; got != want {
			t.Fatalf("trial %d (n=%d): device fitness %d, host evaluator %d", trial, n, got, want)
		}
	}
}

// TestDeviceFitnessParityUCDDCP does the same for the controllable
// problem.
func TestDeviceFitnessParityUCDDCP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		ins, err := orlib.BenchmarkUCDDCP(n, 1, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		in := ins[0]
		seq := problem.IdentitySequence(n)
		rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		got := deviceFitness(in, seq)
		if want := ucddcp.OptimizeSequence(in, seq).Cost; got != want {
			t.Fatalf("trial %d (n=%d): device fitness %d, host evaluator %d", trial, n, got, want)
		}
	}
}

// TestAsyncSADeterministicAcrossDrivers: the parallel and serial drivers
// must produce identical results for the same seed (chain i always owns
// stream i).
func TestAsyncSADeterministicAcrossDrivers(t *testing.T) {
	in := benchInstanceCDD(15)
	mk := func(par bool) core.Result {
		return (&AsyncSA{Inst: in, SA: smallSA(), Ens: Ensemble{Chains: 12, Seed: 3}, Parallel: par}).MustSolve()
	}
	a, b := mk(true), mk(false)
	if a.BestCost != b.BestCost {
		t.Errorf("parallel %d != serial %d", a.BestCost, b.BestCost)
	}
	if a.Evaluations != b.Evaluations {
		t.Errorf("evaluations differ: %d vs %d", a.Evaluations, b.Evaluations)
	}
}

func TestAsyncSAFindsPaperExampleOptimum(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	cfg := smallSA()
	cfg.Iterations = 300
	res := (&AsyncSA{Inst: in, SA: cfg, Ens: Ensemble{Chains: 8, Seed: 1}, Parallel: true}).MustSolve()
	eval := core.NewEvaluator(in)
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Fatalf("reported %d but sequence evaluates to %d", res.BestCost, got)
	}
	// 8 chains × 300 iterations on n=5 must find the global optimum 79
	// (best over all 120 sequences; 81 is the identity sequence's value).
	if res.BestCost > 81 {
		t.Errorf("ensemble best %d worse than the identity-sequence optimum 81", res.BestCost)
	}
}

// TestEnsembleBeatsOneChain: the asynchronous ensemble's reduced best is
// at least as good as its own chain 0 (a pure reduction property).
func TestEnsembleBeatsOneChain(t *testing.T) {
	in := benchInstanceCDD(25)
	one := (&AsyncSA{Inst: in, SA: smallSA(), Ens: Ensemble{Chains: 1, Seed: 9}, Parallel: false}).MustSolve()
	many := (&AsyncSA{Inst: in, SA: smallSA(), Ens: Ensemble{Chains: 16, Seed: 9}, Parallel: true}).MustSolve()
	if many.BestCost > one.BestCost {
		t.Errorf("16-chain ensemble (%d) worse than its own first chain (%d)", many.BestCost, one.BestCost)
	}
}

// TestSyncSARunsAndCollapses verifies the synchronous driver works and
// reproduces the premature-convergence observation of the paper: after
// broadcasting, all chains share one state, so post-broadcast diversity
// is zero.
func TestSyncSARunsAndCollapses(t *testing.T) {
	in := benchInstanceCDD(20)
	res := (&SyncSA{Inst: in, SA: smallSA(), Ens: Ensemble{Chains: 8, Seed: 5},
		MarkovLen: 5, Levels: 10, Parallel: true}).MustSolve()
	if !problem.IsPermutation(res.BestSeq) {
		t.Fatal("SyncSA best is not a permutation")
	}
	eval := core.NewEvaluator(in)
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Errorf("reported %d, evaluates to %d", res.BestCost, got)
	}
	if res.Iterations != 50 {
		t.Errorf("iterations = %d, want 50", res.Iterations)
	}
}

func TestDiversity(t *testing.T) {
	a := []int{0, 1, 2, 3}
	b := []int{3, 2, 1, 0}
	if d := Diversity([][]int{a, a}); d != 0 {
		t.Errorf("identical diversity = %v", d)
	}
	if d := Diversity([][]int{a, b}); d != 4 {
		t.Errorf("opposite diversity = %v, want 4", d)
	}
	if d := Diversity([][]int{a}); d != 0 {
		t.Errorf("single-member diversity = %v", d)
	}
}

func TestParallelDPSODeterministicAcrossDrivers(t *testing.T) {
	in := benchInstanceCDD(15)
	cfg := dpso.DefaultConfig()
	cfg.Iterations = 40
	mk := func(par bool) core.Result {
		return (&ParallelDPSO{Inst: in, PSO: cfg, Ens: Ensemble{Chains: 10, Seed: 4}, Parallel: par}).MustSolve()
	}
	a, b := mk(true), mk(false)
	if a.BestCost != b.BestCost {
		t.Errorf("parallel %d != serial %d", a.BestCost, b.BestCost)
	}
}

func TestParallelDPSOValidResult(t *testing.T) {
	in := benchInstanceUCDDCP(12)
	cfg := dpso.DefaultConfig()
	cfg.Iterations = 30
	res := (&ParallelDPSO{Inst: in, PSO: cfg, Ens: Ensemble{Chains: 8, Seed: 2}, Parallel: true}).MustSolve()
	if !problem.IsPermutation(res.BestSeq) {
		t.Fatal("best is not a permutation")
	}
	eval := core.NewEvaluator(in)
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Errorf("reported %d, evaluates to %d", res.BestCost, got)
	}
}

func TestGPUSAOnPaperExample(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	cfg := smallSA()
	cfg.Iterations = 200
	g := &GPUSA{Inst: in, SA: cfg, Grid: 2, Block: 16, Seed: 1}
	res := g.MustSolve()
	if !problem.IsPermutation(res.BestSeq) {
		t.Fatal("GPU best is not a permutation")
	}
	eval := core.NewEvaluator(in)
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Fatalf("reported %d but sequence evaluates to %d", res.BestCost, got)
	}
	if res.BestCost > 81 {
		t.Errorf("GPU ensemble best %d, expected ≤ 81", res.BestCost)
	}
	if res.SimSeconds <= 0 {
		t.Error("no simulated device time recorded")
	}
	if res.Evaluations < int64(32*200) {
		t.Errorf("evaluations = %d, expected at least 6400", res.Evaluations)
	}
}

func TestGPUSACooperativeMatchesSequential(t *testing.T) {
	// The cooperative (barrier) and sequential execution modes must give
	// identical optimization results — only host timing differs.
	in := benchInstanceCDD(12)
	cfg := smallSA()
	cfg.Iterations = 40
	a := (&GPUSA{Inst: in, SA: cfg, Grid: 2, Block: 8, Seed: 6, Cooperative: false}).MustSolve()
	b := (&GPUSA{Inst: in, SA: cfg, Grid: 2, Block: 8, Seed: 6, Cooperative: true}).MustSolve()
	if a.BestCost != b.BestCost {
		t.Errorf("sequential %d != cooperative %d", a.BestCost, b.BestCost)
	}
}

func TestGPUSAOnUCDDCP(t *testing.T) {
	in := benchInstanceUCDDCP(15)
	cfg := smallSA()
	cfg.Iterations = 80
	res := (&GPUSA{Inst: in, SA: cfg, Grid: 2, Block: 16, Seed: 3}).MustSolve()
	eval := core.NewEvaluator(in)
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Fatalf("reported %d but sequence evaluates to %d", res.BestCost, got)
	}
}

func TestGPUDPSOValidAndConsistent(t *testing.T) {
	in := benchInstanceCDD(12)
	cfg := dpso.DefaultConfig()
	cfg.Iterations = 40
	res := (&GPUDPSO{Inst: in, PSO: cfg, Grid: 2, Block: 8, Seed: 5}).MustSolve()
	if !problem.IsPermutation(res.BestSeq) {
		t.Fatal("best is not a permutation")
	}
	eval := core.NewEvaluator(in)
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Fatalf("reported %d but sequence evaluates to %d", res.BestCost, got)
	}
	if res.SimSeconds <= 0 {
		t.Error("no simulated device time recorded")
	}
}

// TestGPUSASimTimeGrowsWithIterations checks the Figure-11 shape on the
// real pipeline: 4× the generations ≈ 4× the simulated runtime.
func TestGPUSASimTimeGrowsWithIterations(t *testing.T) {
	in := benchInstanceCDD(20)
	cfg := smallSA()
	timeFor := func(iters int) float64 {
		c := cfg
		c.Iterations = iters
		res := (&GPUSA{Inst: in, SA: c, Grid: 2, Block: 16, Seed: 8}).MustSolve()
		return res.SimSeconds
	}
	t1, t4 := timeFor(25), timeFor(100)
	if t4 <= t1 {
		t.Fatalf("sim time not increasing: %g vs %g", t1, t4)
	}
	if ratio := t4 / t1; ratio < 2 || ratio > 8 {
		t.Errorf("4x iterations changed sim time by %.2fx, want ≈ 4x", ratio)
	}
}

// TestGPUSASimTimeGrowsWithThreads checks the other Figure-11 axis: more
// threads (beyond SM capacity) increase simulated runtime.
func TestGPUSASimTimeGrowsWithThreads(t *testing.T) {
	in := benchInstanceCDD(20)
	cfg := smallSA()
	cfg.Iterations = 25
	small := (&GPUSA{Inst: in, SA: cfg, Grid: 2, Block: 32, Seed: 8}).MustSolve()
	big := (&GPUSA{Inst: in, SA: cfg, Grid: 8, Block: 192, Seed: 8}).MustSolve()
	if big.SimSeconds <= small.SimSeconds {
		t.Errorf("24x threads did not increase sim time: %g vs %g", small.SimSeconds, big.SimSeconds)
	}
}

func TestBestOfAcrossEngines(t *testing.T) {
	in := benchInstanceCDD(10)
	cfg := smallSA()
	cfg.Iterations = 40
	idx, best, err := core.BestOf(
		context.Background(), in,
		&AsyncSA{Label: "cpu", SA: cfg, Ens: Ensemble{Chains: 4, Seed: 1}},
		&GPUSA{Label: "gpu", SA: cfg, Grid: 1, Block: 8, Seed: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if idx < 0 || idx > 1 {
		t.Errorf("index %d", idx)
	}
	eval := core.NewEvaluator(in)
	if got := eval.Cost(best.BestSeq); got != best.BestCost {
		t.Errorf("winner reported %d, evaluates to %d", best.BestCost, got)
	}
}

// dpsoCfg builds a DPSO config with the given iteration budget.
func dpsoCfg(iters int) dpso.Config {
	cfg := dpso.DefaultConfig()
	cfg.Iterations = iters
	return cfg
}
