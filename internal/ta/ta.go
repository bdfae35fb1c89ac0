// Package ta implements Threshold Accepting over job sequences, one of
// the metaheuristic family that Feldmann and Biskup [18] applied to the
// common due-date benchmark. It serves as the repository's stand-in CPU
// comparator for the paper's speedup baseline [18] (whose original
// runtimes are not reproducible without the 2003 hardware): like SA but
// with a deterministic acceptance rule — a candidate is accepted when it
// is at most `threshold` worse than the incumbent, and the threshold
// decays geometrically.
package ta

import (
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/xrand"
)

// DefaultConfig returns Threshold Accepting parameters aligned with the
// SA budget: the initial threshold is estimated like SA's T₀ and decays
// with the same 0.88 factor.
func DefaultConfig() Config {
	return Config{
		Iterations:  1000,
		Decay:       0.88,
		Pert:        4,
		TempSamples: 5000,
	}
}

// Config are the TA parameters.
type Config struct {
	// Iterations is the chain length.
	Iterations int
	// Threshold0 is the initial acceptance threshold; when zero it is
	// estimated as the fitness standard deviation of TempSamples random
	// sequences (the same estimator the paper uses for SA's T₀).
	Threshold0 float64
	// Decay is the geometric threshold decay per iteration.
	Decay float64
	// Pert is the perturbation size of the neighbourhood.
	Pert int
	// TempSamples is the sample count for the Threshold0 estimate.
	TempSamples int
}

func (c Config) normalized(n int) Config {
	d := DefaultConfig()
	if c.Iterations <= 0 {
		c.Iterations = d.Iterations
	}
	if c.Decay <= 0 || c.Decay >= 1 {
		c.Decay = d.Decay
	}
	if c.Pert <= 0 {
		c.Pert = d.Pert
	}
	if c.Pert > n {
		c.Pert = n
	}
	if c.TempSamples <= 0 {
		c.TempSamples = d.TempSamples
	}
	return c
}

// Chain is one threshold-accepting trajectory.
type Chain struct {
	cfg  Config
	eval core.Evaluator
	rng  *xrand.XORWOW
	ops  *perm.Ops

	cur, cand []int
	curCost   int64
	best      []int
	bestCost  int64
	threshold float64
	evals     int64
}

// NewChain builds a chain with a random initial sequence.
func NewChain(cfg Config, eval core.Evaluator, rng *xrand.XORWOW) *Chain {
	n := eval.Instance().GenomeLen()
	cfg = cfg.normalized(n)
	c := &Chain{
		cfg:  cfg,
		eval: eval,
		rng:  rng,
		ops:  perm.NewOps(n),
		cur:  perm.Random(rng, n),
		cand: make([]int, n),
		best: make([]int, n),
	}
	c.curCost = eval.Cost(c.cur)
	c.evals++
	copy(c.best, c.cur)
	c.bestCost = c.curCost
	c.threshold = cfg.Threshold0
	if c.threshold <= 0 {
		c.threshold = core.InitialTemperature(eval, rng, cfg.TempSamples)
		c.evals += int64(core.TempSampleCount(cfg.TempSamples))
	}
	return c
}

// Step performs one TA iteration and returns the candidate cost.
func (c *Chain) Step() int64 {
	copy(c.cand, c.cur)
	c.ops.PartialShuffle(c.rng, c.cand, c.cfg.Pert)
	candCost := c.eval.Cost(c.cand)
	c.evals++
	if float64(candCost) <= float64(c.curCost)+c.threshold {
		c.cur, c.cand = c.cand, c.cur
		c.curCost = candCost
		if candCost < c.bestCost {
			copy(c.best, c.cur)
			c.bestCost = candCost
		}
	}
	c.threshold *= c.cfg.Decay
	return candCost
}

// Run executes the configured iterations and returns the best cost.
func (c *Chain) Run() int64 {
	for i := 0; i < c.cfg.Iterations; i++ {
		c.Step()
	}
	return c.bestCost
}

// Best returns the best sequence (borrowed) and its cost.
func (c *Chain) Best() ([]int, int64) { return c.best, c.bestCost }

// Evaluations returns the number of fitness evaluations performed.
func (c *Chain) Evaluations() int64 { return c.evals }
