// Package sa implements the Simulated Annealing core of the paper
// (Algorithm 1): metropolis acceptance over job sequences, exponential
// cooling with factor μ = 0.88, and the Fisher–Yates partial-shuffle
// perturbation of size Pert = 4. A Chain is one annealing trajectory on
// the host; the CPU ensembles run one per chain, serially or across
// goroutines. Each step has one implementation that every SA engine runs:
// Perturb, Accept and Config.Cool serve the host chains' []int rows and
// the simulated-GPU kernels' []int32 rows alike (package parallel), so
// the engines differ only in where they run and in the T₀ policy.
package sa

import (
	"math"
	"slices"

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
	// paper's choice; see cooling.go for the alternatives). Only the CPU
	// chains (Chain) honour it: both simulated-GPU engines always cool
	// exponentially (Cool).
	Schedule Schedule
	// ReheatPeriod and ReheatFactor configure the Reheating schedule.
	ReheatPeriod int
	ReheatFactor float64
	// Neighborhood selects the move operator (default NeighborShuffle,
	// the paper's Pert-subset Fisher–Yates perturbation). Only the CPU
	// chains (Chain) honour it: both simulated-GPU engines always run the
	// paper's perturbation (Perturb).
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

// Normalized returns the config for sequences of length n with unset
// fields defaulted and bounds enforced (Pert at most n), so chain code
// can assume sanity. Every SA engine — the CPU chains and both GPU
// pipelines — runs the normalized config.
func (c Config) Normalized(n int) Config {
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

// Perturb is the paper's Pert perturbation, applied in place to seq on
// iteration it: the Pert positions are re-drawn with Floyd's algorithm on
// iteration 0 and every ReselectPeriod iterations after ("after every 10
// SA iterations" in the paper; pos, the previous call's positions, is
// kept in between), then the jobs at the positions are
// Fisher–Yates-shuffled. It returns the positions, which the caller passes
// back on the next call, and whether they were re-drawn. cfg must be
// Normalized. The CPU chains and both simulated-GPU SA kernels perturb
// with it, on the host's []int rows and the device's []int32 rows.
func Perturb[S ~int | ~int32](rng *xrand.XORWOW, cfg *Config, it int, pos []int, seq []S) ([]int, bool) {
	redraw := cfg.redraws(it, pos)
	if redraw {
		pos = pos[:0]
		// Floyd's algorithm for a uniform Pert-subset without extra state.
		for j := len(seq) - cfg.Pert; j < len(seq); j++ {
			t := rng.Intn(j + 1)
			if slices.Contains(pos, t) {
				t = j
			}
			pos = append(pos, t)
		}
	}
	for i := len(pos) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		a, b := pos[i], pos[j]
		seq[a], seq[b] = seq[b], seq[a]
	}
	return pos, redraw
}

// redraws reports whether Perturb re-draws its positions on iteration it.
func (c *Config) redraws(it int, pos []int) bool {
	return it%c.ReselectPeriod == 0 || len(pos) == 0
}

// Accept is the metropolis criterion of Algorithm 1: a candidate of cost
// cand replaces a current solution of cost cur when
// exp((cur−cand)/temp) ≥ rand(0,1). Improvements and ties are accepted,
// and at temp ≤ 0 worse candidates are rejected, without a draw from
// rng. Every SA engine accepts with it.
func Accept(rng *xrand.XORWOW, cur, cand int64, temp float64) bool {
	if cand <= cur {
		return true
	}
	if temp <= 0 {
		return false
	}
	return math.Exp(float64(cur-cand)/temp) >= rng.Float64()
}

// Cool is the per-iteration temperature update of the paper's
// exponential schedule: temp·Cooling, floored at TMin when TMin is
// positive. Every SA engine cools with it (a CPU chain on another
// Schedule keeps only the TMin floor).
func (c *Config) Cool(temp float64) float64 { return c.floor(temp * c.Cooling) }

// floor applies the TMin guard to a temperature.
func (c *Config) floor(temp float64) float64 {
	if c.TMin > 0 && temp < c.TMin {
		return c.TMin
	}
	return temp
}

// Chain is one annealing trajectory. It owns all its scratch state, so
// distinct chains may run concurrently.
type Chain struct {
	cfg  Config
	eval core.Evaluator
	rng  *xrand.XORWOW

	cur     []int
	cand    []int
	pos     []int // the Pert positions currently perturbed
	curCost int64

	best     []int
	bestCost int64

	temp   float64
	cooler *Cooler
	iter   int
	evals  int64

	// Plain-int64 tallies for the observability layer; always maintained
	// (a few register increments per step) and folded into a run's
	// obs.Collector through Counters (every evaluation is a full pass, so
	// evals doubles as the full-pass count).
	accepts  int64
	improves int64
}

// NewChain builds a chain over the evaluator with its own RNG stream. The
// initial solution is a uniformly random sequence; the initial
// temperature follows the config. Every candidate is scored with one
// full O(n) pass of eval.Cost.
func NewChain(cfg Config, eval core.Evaluator, rng *xrand.XORWOW) *Chain {
	n := eval.Instance().GenomeLen()
	cfg = cfg.Normalized(n)
	c := &Chain{
		cfg:  cfg,
		eval: eval,
		rng:  rng,
		cur:  perm.Random(rng, n),
		cand: make([]int, n),
		pos:  make([]int, 0, cfg.Pert),
		best: make([]int, n),
	}
	c.curCost = eval.Cost(c.cur)
	c.evals++
	copy(c.best, c.cur)
	c.bestCost = c.curCost
	c.temp = cfg.T0
	if c.temp <= 0 {
		c.temp = core.InitialTemperature(eval, rng, cfg.TempSamples)
		scored := int64(core.TempSampleCount(cfg.TempSamples))
		c.evals += scored
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
		FullEvaluations: c.evals,
		Acceptances:     c.accepts,
		Improvements:    c.improves,
	}
}

// Neighbour writes a perturbed copy of the current sequence into the
// chain's candidate buffer and returns it (borrowed). For the default
// shuffle operator the positions are re-drawn every ReselectPeriod
// iterations, per Section VI of the paper.
func (c *Chain) Neighbour() []int {
	copy(c.cand, c.cur)
	switch c.cfg.Neighborhood {
	case NeighborSwap:
		perm.Swap(c.rng, c.cand)
	case NeighborInsert:
		perm.Insert(c.rng, c.cand)
	case NeighborReverse:
		perm.ReverseSegment(c.rng, c.cand)
	case NeighborMixed:
		if c.cfg.redraws(c.iter, c.pos) {
			c.pos, _ = Perturb(c.rng, &c.cfg, c.iter, c.pos, c.cand)
		} else {
			perm.Swap(c.rng, c.cand)
		}
	default:
		c.pos, _ = Perturb(c.rng, &c.cfg, c.iter, c.pos, c.cand)
	}
	return c.cand
}

// Step performs one SA iteration: neighbour, evaluate, metropolis accept,
// cool. It returns the candidate's cost (whether accepted or not).
func (c *Chain) Step() int64 {
	candCost := c.eval.Cost(c.Neighbour())
	c.evals++
	if Accept(c.rng, c.curCost, candCost, c.temp) {
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
		c.temp = c.cfg.floor(c.cooler.At(c.iter))
	} else {
		c.temp = c.cfg.Cool(c.temp)
	}
	return candCost
}

// Run executes the configured number of iterations and returns the best
// cost found.
func (c *Chain) Run() int64 {
	for i := 0; i < c.cfg.Iterations; i++ {
		c.Step()
	}
	return c.bestCost
}
