// Package sa implements the Simulated Annealing core of the paper
// (Algorithm 1): metropolis acceptance over job sequences, exponential
// cooling with factor μ = 0.88, and the Fisher–Yates partial-shuffle
// perturbation of size Pert = 4. A Chain is the unit that runs inside one
// simulated CUDA thread (asynchronous ensemble) or one host goroutine; the
// serial CPU solver is a single chain or a serially executed ensemble.
package sa

import (
	"math"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/xrand"
)

// DefaultConfig returns the paper's published SA parameters.
func DefaultConfig() Config {
	return Config{
		Iterations:     1000,
		Cooling:        0.88,
		Pert:           4,
		ReselectPeriod: 10,
		TempSamples:    5000,
	}
}

// Config are the SA parameters. The zero value is invalid; start from
// DefaultConfig.
type Config struct {
	// Iterations is the chain length (1000 or 5000 in the paper's runs).
	Iterations int
	// T0 is the initial temperature. When zero it is estimated as the
	// standard deviation of TempSamples random-sequence fitnesses
	// (Salamon–Sibani–Frost, as in the paper).
	T0 float64
	// Cooling is the exponential factor μ ∈ (0,1); T ← T·μ each iteration.
	Cooling float64
	// Pert is the perturbation size: the number of positions whose jobs
	// are shuffled to form a neighbour.
	Pert int
	// ReselectPeriod re-draws the Pert positions every that many
	// iterations ("after every 10 SA iterations" in the paper); between
	// re-draws the same positions are re-shuffled. 1 draws fresh
	// positions every iteration.
	ReselectPeriod int
	// TempSamples is the sample count for the T0 estimate.
	TempSamples int
	// TMin, when positive, floors the temperature (a common guard against
	// denormal temperatures on very long runs; off by default).
	TMin float64
	// Schedule selects the cooling schedule (default Exponential, the
	// paper's choice; see cooling.go for the alternatives).
	Schedule Schedule
	// ReheatPeriod and ReheatFactor configure the Reheating schedule.
	ReheatPeriod int
	ReheatFactor float64
	// Neighborhood selects the move operator (default NeighborShuffle,
	// the paper's Pert-subset Fisher–Yates perturbation).
	Neighborhood NeighborOp
}

// NeighborOp identifies the neighbourhood move of a chain.
type NeighborOp int

const (
	// NeighborShuffle is the paper's perturbation: Fisher–Yates over a
	// Pert-subset of positions (re-drawn every ReselectPeriod).
	NeighborShuffle NeighborOp = iota
	// NeighborSwap exchanges two random positions.
	NeighborSwap
	// NeighborInsert relocates one random job.
	NeighborInsert
	// NeighborReverse reverses a random segment (2-opt style).
	NeighborReverse
	// NeighborMixed applies the shuffle on re-draw iterations and a swap
	// otherwise — a small-step/large-step mix.
	NeighborMixed
)

// normalized returns the config with unset fields defaulted and bounds
// enforced, so Chain code can assume sanity.
func (c Config) normalized(n int) Config {
	d := DefaultConfig()
	if c.Iterations <= 0 {
		c.Iterations = d.Iterations
	}
	if c.Cooling <= 0 || c.Cooling >= 1 {
		c.Cooling = d.Cooling
	}
	if c.Pert <= 0 {
		c.Pert = d.Pert
	}
	if c.Pert > n {
		c.Pert = n
	}
	if c.ReselectPeriod <= 0 {
		c.ReselectPeriod = d.ReselectPeriod
	}
	if c.TempSamples <= 0 {
		c.TempSamples = d.TempSamples
	}
	return c
}

// Chain is one annealing trajectory. It owns all its scratch state, so
// distinct chains may run concurrently.
type Chain struct {
	cfg   Config
	eval  core.Evaluator
	delta core.DeltaEvaluator // non-nil when eval supports propose/commit
	rng   *xrand.XORWOW

	cur     []int
	cand    []int
	pos     []int // the Pert positions currently perturbed
	touched []int // positions the last Neighbour call may have changed
	curCost int64

	best     []int
	bestCost int64

	temp   float64
	cooler *Cooler
	iter   int
	evals  int64

	// Plain-int64 tallies for the observability layer; always maintained
	// (a few register increments per step) and folded into a run's
	// obs.Collector through Counters.
	deltaEvals int64
	fullEvals  int64
	accepts    int64
	improves   int64
}

// NewChain builds a chain over the evaluator with its own RNG stream. The
// initial solution is a uniformly random sequence; the initial
// temperature follows the config. When the evaluator implements
// core.DeltaEvaluator, the chain prices each neighbour incrementally
// through the propose/commit protocol — the costs (and therefore the
// trajectory) are bit-identical to full evaluation. That is not faster:
// in every case BenchmarkChainStep times, a step over core.NewEvaluator
// is faster than one over core.NewDeltaEvaluator or within noise of it,
// so production chains take the full pass.
func NewChain(cfg Config, eval core.Evaluator, rng *xrand.XORWOW) *Chain {
	n := eval.Instance().GenomeLen()
	cfg = cfg.normalized(n)
	c := &Chain{
		cfg:     cfg,
		eval:    eval,
		rng:     rng,
		cur:     perm.Random(rng, n),
		cand:    make([]int, n),
		pos:     make([]int, 0, cfg.Pert),
		touched: make([]int, 0, n),
		best:    make([]int, n),
	}
	if de, ok := eval.(core.DeltaEvaluator); ok {
		c.delta = de
		c.curCost = de.Reset(c.cur)
	} else {
		c.curCost = eval.Cost(c.cur)
	}
	c.evals++
	c.fullEvals++
	copy(c.best, c.cur)
	c.bestCost = c.curCost
	c.temp = cfg.T0
	if c.temp <= 0 {
		c.temp = core.InitialTemperature(eval, rng, cfg.TempSamples)
		scored := int64(core.TempSampleCount(cfg.TempSamples))
		c.evals += scored
		c.fullEvals += scored
	}
	if cfg.Schedule != Exponential {
		c.cooler = NewCooler(cfg.Schedule, c.temp, cfg.Cooling, cfg.Iterations, cfg.ReheatPeriod, cfg.ReheatFactor)
	}
	return c
}

// SetSolution replaces the current state with the given sequence (copied),
// e.g. to broadcast the synchronous ensemble's global best.
func (c *Chain) SetSolution(seq []int, cost int64) {
	copy(c.cur, seq)
	c.curCost = cost
	if c.delta != nil {
		c.delta.Reset(c.cur)
	}
	if cost < c.bestCost {
		copy(c.best, seq)
		c.bestCost = cost
	}
}

// Current returns the chain's current sequence (borrowed) and cost.
func (c *Chain) Current() ([]int, int64) { return c.cur, c.curCost }

// Best returns the best sequence seen (borrowed) and its cost.
func (c *Chain) Best() ([]int, int64) { return c.best, c.bestCost }

// Temperature returns the current annealing temperature.
func (c *Chain) Temperature() float64 { return c.temp }

// Evaluations returns the number of fitness evaluations performed,
// including the T0 estimation samples.
func (c *Chain) Evaluations() int64 { return c.evals }

// Counters returns the chain's observability tallies; with it Chain
// satisfies obs.CounterSource.
func (c *Chain) Counters() obs.ChainCounters {
	return obs.ChainCounters{
		DeltaEvaluations: c.deltaEvals,
		FullEvaluations:  c.fullEvals,
		Acceptances:      c.accepts,
		Improvements:     c.improves,
	}
}

// Neighbour writes a perturbed copy of the current sequence into the
// chain's candidate buffer and returns it (borrowed). For the default
// shuffle operator the positions are re-drawn every ReselectPeriod
// iterations, per Section VI of the paper. Each move records the touched
// positions so an incremental evaluator can price the candidate in
// O(touched) rather than O(n).
func (c *Chain) Neighbour() []int {
	copy(c.cand, c.cur)
	switch c.cfg.Neighborhood {
	case NeighborSwap:
		i, j := perm.Swap(c.rng, c.cand)
		c.touched = append(c.touched[:0], i, j)
	case NeighborInsert:
		c.touchRange(perm.Insert(c.rng, c.cand))
	case NeighborReverse:
		c.touchRange(perm.ReverseSegment(c.rng, c.cand))
	case NeighborMixed:
		if c.iter%c.cfg.ReselectPeriod == 0 || len(c.pos) == 0 {
			c.drawPositions()
			c.shuffleAtPositions(c.cand)
			c.touched = append(c.touched[:0], c.pos...)
		} else {
			i, j := perm.Swap(c.rng, c.cand)
			c.touched = append(c.touched[:0], i, j)
		}
	default:
		if c.iter%c.cfg.ReselectPeriod == 0 || len(c.pos) == 0 {
			c.drawPositions()
		}
		c.shuffleAtPositions(c.cand)
		c.touched = append(c.touched[:0], c.pos...)
	}
	return c.cand
}

// touchRange records the inclusive window [lo, hi] as touched positions.
func (c *Chain) touchRange(lo, hi int) {
	c.touched = c.touched[:0]
	for p := lo; p <= hi; p++ {
		c.touched = append(c.touched, p)
	}
}

// drawPositions samples Pert distinct positions uniformly.
func (c *Chain) drawPositions() {
	n := len(c.cur)
	k := c.cfg.Pert
	c.pos = c.pos[:0]
	// Floyd's algorithm for a uniform k-subset without extra state.
	for j := n - k; j < n; j++ {
		t := c.rng.Intn(j + 1)
		found := false
		for _, p := range c.pos {
			if p == t {
				found = true
				break
			}
		}
		if found {
			c.pos = append(c.pos, j)
		} else {
			c.pos = append(c.pos, t)
		}
	}
}

// shuffleAtPositions Fisher–Yates-shuffles the jobs at the drawn
// positions inside seq.
func (c *Chain) shuffleAtPositions(seq []int) {
	k := len(c.pos)
	for i := k - 1; i > 0; i-- {
		j := c.rng.Intn(i + 1)
		a, b := c.pos[i], c.pos[j]
		seq[a], seq[b] = seq[b], seq[a]
	}
}

// Step performs one SA iteration: neighbour, evaluate, metropolis accept,
// cool. It returns the candidate's cost (whether accepted or not). With an
// incremental evaluator the candidate is priced by Propose over the
// touched positions and the cache advances by Commit only on acceptance.
func (c *Chain) Step() int64 {
	cand := c.Neighbour()
	var candCost int64
	if c.delta != nil {
		candCost = c.delta.Propose(cand, c.touched)
		c.deltaEvals++
	} else {
		candCost = c.eval.Cost(cand)
		c.fullEvals++
	}
	c.evals++
	if c.accept(candCost) {
		if c.delta != nil {
			c.delta.Commit()
		}
		c.cur, c.cand = c.cand, c.cur
		c.curCost = candCost
		c.accepts++
		if candCost < c.bestCost {
			copy(c.best, c.cur)
			c.bestCost = candCost
			c.improves++
		}
	}
	c.iter++
	if c.cooler != nil {
		c.temp = c.cooler.At(c.iter)
	} else {
		c.temp *= c.cfg.Cooling
	}
	if c.cfg.TMin > 0 && c.temp < c.cfg.TMin {
		c.temp = c.cfg.TMin
	}
	return candCost
}

// accept applies the metropolis criterion of Algorithm 1:
// exp((E−E_new)/T) ≥ rand(0,1). Improvements are always accepted.
func (c *Chain) accept(candCost int64) bool {
	if candCost <= c.curCost {
		return true
	}
	if c.temp <= 0 {
		return false
	}
	return math.Exp(float64(c.curCost-candCost)/c.temp) >= c.rng.Float64()
}

// Run executes the configured number of iterations and returns the best
// cost found.
func (c *Chain) Run() int64 {
	for i := 0; i < c.cfg.Iterations; i++ {
		c.Step()
	}
	return c.bestCost
}
