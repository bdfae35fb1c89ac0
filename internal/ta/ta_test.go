package ta

import (
	"math/rand"
	"testing"

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

func TestChainImprovesOverRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		in := randomCDD(rng, 25)
		eval := core.NewEvaluator(in)
		xr := xrand.New(uint64(trial))
		_, randCost := core.RandomSolution(eval, xr)
		cfg := DefaultConfig()
		cfg.Iterations = 1000
		cfg.TempSamples = 200
		best := NewChain(cfg, eval, xr).Run()
		if best > randCost {
			t.Errorf("trial %d: TA best %d worse than random %d", trial, best, randCost)
		}
	}
}

func TestDeterministicAcceptance(t *testing.T) {
	// With threshold 0 TA is a strict hill climber: the incumbent cost
	// must be non-increasing.
	rng := rand.New(rand.NewSource(2))
	in := randomCDD(rng, 20)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.Threshold0 = 1e-9 // effectively zero
	cfg.Iterations = 200
	c := NewChain(cfg, eval, xrand.New(3))
	_, prev := c.Best()
	for i := 0; i < 200; i++ {
		c.Step()
		_, cur := c.Best()
		if cur > prev {
			t.Fatalf("best worsened under zero threshold: %d -> %d", prev, cur)
		}
		prev = cur
	}
}

func TestBestIsPermutationAndConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomCDD(rng, 15)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.Iterations = 300
	cfg.TempSamples = 100
	c := NewChain(cfg, eval, xrand.New(5))
	c.Run()
	seq, cost := c.Best()
	if !problem.IsPermutation(seq) {
		t.Error("best is not a permutation")
	}
	if got := eval.Cost(seq); got != cost {
		t.Errorf("best cost %d != re-evaluated %d", cost, got)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := randomCDD(rng, 20)
	run := func() int64 {
		eval := core.NewEvaluator(in)
		cfg := DefaultConfig()
		cfg.Iterations = 200
		cfg.TempSamples = 100
		return NewChain(cfg, eval, xrand.New(11)).Run()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed differs: %d vs %d", a, b)
	}
}

func TestEvaluationAccounting(t *testing.T) {
	in := problem.PaperExample(problem.CDD)
	eval := core.NewEvaluator(in)
	cfg := DefaultConfig()
	cfg.TempSamples = 50
	cfg.Iterations = 20
	c := NewChain(cfg, eval, xrand.New(7))
	c.Run()
	if got := c.Evaluations(); got != 1+50+20 {
		t.Errorf("evaluations = %d, want 71", got)
	}
}

// TestOneTempSampleCountsTwo: the Threshold0 estimate scores at least two
// random sequences, and a chain configured with TempSamples 1 counts both.
func TestOneTempSampleCountsTwo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TempSamples = 1
	c := NewChain(cfg, core.NewEvaluator(problem.PaperExample(problem.CDD)), xrand.New(7))
	if got := c.Evaluations(); got != 1+2 {
		t.Errorf("evaluations before the first step = %d, want 1 + 2", got)
	}
}
