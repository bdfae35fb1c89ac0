package sa

import (
	"math/rand"
	"testing"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/xrand"
)

func randomCDD(rng *rand.Rand, n int) *problem.Instance {
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	var sum int64
	for i := 0; i < n; i++ {
		p[i] = 1 + rng.Intn(20)
		alpha[i] = 1 + rng.Intn(10)
		beta[i] = 1 + rng.Intn(15)
		sum += int64(p[i])
	}
	in, err := problem.NewCDD("t", p, alpha, beta, int64(float64(sum)*0.6))
	if err != nil {
		panic(err)
	}
	return in
}

func TestDefaultsMatchPaper(t *testing.T) {
	d := DefaultConfig()
	if d.Cooling != 0.88 {
		t.Errorf("cooling = %v, want the paper's 0.88", d.Cooling)
	}
	if d.Pert != 4 {
		t.Errorf("Pert = %d, want 4", d.Pert)
	}
	if d.TempSamples != 5000 {
		t.Errorf("TempSamples = %d, want 5000", d.TempSamples)
	}
	if d.ReselectPeriod != 10 {
		t.Errorf("ReselectPeriod = %d, want 10", d.ReselectPeriod)
	}
}

func TestChainSolvesPaperExample(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.Iterations = 2000
	cfg.TempSamples = 500
	chain := NewChain(cfg, eval, xrand.New(1))
	got := chain.Run()
	// Exhaustive check over all 120 sequences gives the global optimum.
	want := bruteForceBest(in)
	if got != want {
		t.Errorf("SA best = %d, brute force optimum = %d", got, want)
	}
	seq, cost := chain.Best()
	if !problem.IsPermutation(seq) {
		t.Error("best sequence is not a permutation")
	}
	if cost != eval.Cost(seq) {
		t.Errorf("cached best cost %d != re-evaluated %d", cost, eval.Cost(seq))
	}
}

func bruteForceBest(in *problem.Instance) int64 {
	n := in.N()
	seq := problem.IdentitySequence(n)
	best := int64(1) << 62
	var permute func(k int)
	permute = func(k int) {
		if k == n {
			if c := cdd.OptimizeSequence(in, seq).Cost; c < best {
				best = c
			}
			return
		}
		for i := k; i < n; i++ {
			seq[k], seq[i] = seq[i], seq[k]
			permute(k + 1)
			seq[k], seq[i] = seq[i], seq[k]
		}
	}
	permute(0)
	return best
}

func TestChainImprovesOverRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		in := randomCDD(rng, 30)
		eval := core.NewEvaluator(in)
		xr := xrand.New(uint64(trial))
		randSeq, randCost := core.RandomSolution(eval, xr)
		_ = randSeq
		cfg := DefaultConfig()
		cfg.Iterations = 1500
		cfg.TempSamples = 300
		chain := NewChain(cfg, eval, xr)
		best := chain.Run()
		if best > randCost {
			t.Errorf("trial %d: SA best %d worse than a random solution %d", trial, best, randCost)
		}
	}
}

func TestTemperatureCoolsExponentially(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.T0 = 100
	cfg.TempSamples = 10
	chain := NewChain(cfg, eval, xrand.New(2))
	if chain.Temperature() != 100 {
		t.Fatalf("T0 = %v", chain.Temperature())
	}
	chain.Step()
	if got := chain.Temperature(); got != 88 {
		t.Errorf("after one step T = %v, want 88", got)
	}
	for i := 0; i < 9; i++ {
		chain.Step()
	}
	want := 100.0
	for i := 0; i < 10; i++ {
		want *= 0.88
	}
	if got := chain.Temperature(); got < want*0.999 || got > want*1.001 {
		t.Errorf("after 10 steps T = %v, want %v", got, want)
	}
}

func TestTMinFloorsTemperature(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.T0 = 1
	cfg.TMin = 0.5
	cfg.TempSamples = 10
	chain := NewChain(cfg, eval, xrand.New(3))
	for i := 0; i < 50; i++ {
		chain.Step()
	}
	if chain.Temperature() != 0.5 {
		t.Errorf("T = %v, want floored at 0.5", chain.Temperature())
	}
}

func TestT0EstimatedWhenZero(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomCDD(rng, 20)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.TempSamples = 200
	chain := NewChain(cfg, eval, xrand.New(4))
	if chain.Temperature() <= 0 {
		t.Errorf("estimated T0 = %v, want > 0", chain.Temperature())
	}
	// The estimate must match core.InitialTemperature with the same stream.
	xr := xrand.New(4)
	eval2 := core.NewEvaluator(in)
	_ = permRandomConsume(xr, in.N()) // NewChain draws the initial solution first
	want := core.InitialTemperature(eval2, xr, 200)
	if got := chain.Temperature(); got != want {
		t.Errorf("T0 = %v, want %v (same RNG stream)", got, want)
	}
}

// permRandomConsume replays the RNG draws NewChain makes before the T0
// estimate (the random initial sequence).
func permRandomConsume(r *xrand.XORWOW, n int) []int {
	seq := problem.IdentitySequence(n)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		seq[i], seq[j] = seq[j], seq[i]
	}
	return seq
}

func TestNeighbourChangesAtMostPertPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randomCDD(rng, 40)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.Pert = 4
	cfg.TempSamples = 10
	chain := NewChain(cfg, eval, xrand.New(6))
	for i := 0; i < 200; i++ {
		cur, _ := chain.Current()
		orig := append([]int(nil), cur...)
		cand := chain.Neighbour()
		if !problem.IsPermutation(cand) {
			t.Fatal("neighbour is not a permutation")
		}
		diff := 0
		for p := range orig {
			if cand[p] != orig[p] {
				diff++
			}
		}
		if diff > 4 {
			t.Fatalf("neighbour changed %d positions, Pert=4", diff)
		}
		chain.Step()
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randomCDD(rng, 25)
	run := func() int64 {
		eval := core.NewEvaluator(in)
		cfg := DefaultConfig()
		cfg.Iterations = 300
		cfg.TempSamples = 100
		return NewChain(cfg, eval, xrand.New(42)).Run()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different results: %d vs %d", a, b)
	}
}

func TestSetSolutionBroadcast(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.TempSamples = 10
	chain := NewChain(cfg, eval, xrand.New(7))
	seq := problem.IdentitySequence(5)
	cost := eval.Cost(seq)
	chain.SetSolution(seq, cost)
	cur, curCost := chain.Current()
	if curCost != cost {
		t.Errorf("current cost %d, want %d", curCost, cost)
	}
	for i := range seq {
		if cur[i] != seq[i] {
			t.Fatal("current sequence not replaced")
		}
	}
	// Broadcasting a worse solution must not corrupt the best.
	_, bestBefore := chain.Best()
	worst := []int{4, 3, 2, 1, 0}
	chain.SetSolution(worst, eval.Cost(worst)+1000000)
	if _, bestAfter := chain.Best(); bestAfter != bestBefore {
		t.Error("SetSolution with worse cost changed best")
	}
}

func TestEvaluationAccounting(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.TempSamples = 100
	cfg.Iterations = 50
	chain := NewChain(cfg, eval, xrand.New(8))
	base := chain.Evaluations() // 1 initial + 100 T0 samples
	if base != 101 {
		t.Errorf("initial evaluations = %d, want 101", base)
	}
	chain.Run()
	if got := chain.Evaluations(); got != base+50 {
		t.Errorf("after 50 iterations evaluations = %d, want %d", got, base+50)
	}
}

// TestOneTempSampleCountsTwo: core.InitialTemperature scores at least
// two random sequences, so a chain configured with TempSamples 1 reports
// the initial solution plus those two samples before its first step, and
// anneals from the same T0 as TempSamples 2.
func TestOneTempSampleCountsTwo(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	cfg := DefaultConfig()
	cfg.TempSamples = 1
	one := NewChain(cfg, core.NewEvaluator(in), xrand.New(8))
	if got := one.Evaluations(); got != 1+2 {
		t.Errorf("evaluations before the first step = %d, want 1 + 2", got)
	}
	if c := one.Counters(); c.FullEvaluations != 1+2 {
		t.Errorf("full evaluations before the first step = %d, want 1 + 2", c.FullEvaluations)
	}
	cfg.TempSamples = 2
	two := NewChain(cfg, core.NewEvaluator(in), xrand.New(8))
	if one.Temperature() != two.Temperature() {
		t.Errorf("T0 with 1 sample = %v, with 2 = %v", one.Temperature(), two.Temperature())
	}
}

func TestConfigNormalization(t *testing.T) {
	cfg := Config{Pert: 100}.normalized(5)
	if cfg.Pert != 5 {
		t.Errorf("Pert clamped to %d, want 5", cfg.Pert)
	}
	cfg = Config{Cooling: 2.0}.normalized(5)
	if cfg.Cooling != 0.88 {
		t.Errorf("invalid cooling defaulted to %v, want 0.88", cfg.Cooling)
	}
}

// TestMetropolisStatistics pins the acceptance criterion's behavior at
// the temperature extremes: with T enormous essentially every candidate
// is accepted (random walk), with T ≈ 0 only improvements are.
func TestMetropolisStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	in := randomCDD(rng, 30)
	run := func(t0 float64) (accepted, worse int) {
		eval := core.NewEvaluator(in)
		cfg := DefaultConfig()
		cfg.T0 = t0
		cfg.Cooling = 0.999999 // hold the temperature ~constant
		cfg.TempSamples = 10
		chain := NewChain(cfg, eval, xrand.New(42))
		for i := 0; i < 400; i++ {
			_, before := chain.Current()
			candCost := chain.Step()
			_, after := chain.Current()
			if candCost > before {
				worse++
				if after == candCost {
					accepted++
				}
			}
		}
		return accepted, worse
	}
	accHot, worseHot := run(1e12)
	if worseHot == 0 {
		t.Fatal("no worsening candidates generated at all")
	}
	if rate := float64(accHot) / float64(worseHot); rate < 0.95 {
		t.Errorf("at huge T only %.0f%% of worsening moves accepted, want ≈ 100%%", rate*100)
	}
	accCold, worseCold := run(1e-9)
	if worseCold == 0 {
		t.Fatal("no worsening candidates generated at cold T")
	}
	if accCold != 0 {
		t.Errorf("at T≈0, %d/%d worsening moves accepted, want 0", accCold, worseCold)
	}
}

// TestDeltaChainMatchesPlainChain runs the same seeded chain once over the
// plain full-pass evaluator and once over the incremental propose/commit
// evaluator, for every neighbourhood operator and both problem kinds. The
// delta evaluator returns bit-identical costs, so every metropolis
// decision — and hence the whole trajectory — must coincide step for step.
func TestDeltaChainMatchesPlainChain(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	kinds := []func() *problem.Instance{
		func() *problem.Instance { return randomCDD(rng, 40) },
		func() *problem.Instance { return problem.PaperExample(problem.UCDDCP) },
	}
	ops := []NeighborOp{NeighborShuffle, NeighborSwap, NeighborInsert, NeighborReverse, NeighborMixed}
	for ki, mk := range kinds {
		in := mk()
		for _, op := range ops {
			cfg := DefaultConfig()
			cfg.Iterations = 250
			cfg.TempSamples = 60
			cfg.Neighborhood = op
			plain := NewChain(cfg, core.NewEvaluator(in), xrand.New(99))
			delta := NewChain(cfg, core.NewDeltaEvaluator(in), xrand.New(99))
			for it := 0; it < cfg.Iterations; it++ {
				a, b := plain.Step(), delta.Step()
				if a != b {
					t.Fatalf("kind %d op %v iter %d: plain cand cost %d, delta %d", ki, op, it, a, b)
				}
			}
			_, pc := plain.Best()
			_, dc := delta.Best()
			if pc != dc {
				t.Fatalf("kind %d op %v: best plain %d, delta %d", ki, op, pc, dc)
			}
			if plain.Evaluations() != delta.Evaluations() {
				t.Fatalf("kind %d op %v: evaluations plain %d, delta %d", ki, op, plain.Evaluations(), delta.Evaluations())
			}
		}
	}
}
