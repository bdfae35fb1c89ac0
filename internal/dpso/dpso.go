// Package dpso implements the Discrete Particle Swarm Optimization of the
// paper (Algorithm 2), after Pan, Tasgetiren and Liang's DPSO for no-wait
// flowshop scheduling. Particle positions are job permutations; the update
// rule of Equation (3) composes three probabilistic operators:
//
//	p(t+1) = c2 ⊕ F3( c1 ⊕ F2( w ⊕ F1(p(t)), pbest ), gbest )
//
// where F1 is a random swap (the "velocity"), F2 a one-point order
// crossover with the particle's own best (cognition), and F3 a two-point
// order crossover with the swarm's best (social component). Each operator
// fires with its probability, otherwise passes its input through. Move is
// the one implementation of that update: the CPU particles and the
// simulated-GPU update kernel (parallel.GPUDPSO) both run it.
//
// The paper does not publish w, c1, c2; DefaultConfig documents the values
// used here.
package dpso

import (
	"repro/internal/core"
	"repro/internal/perm"
	"repro/internal/xrand"
)

// DefaultConfig returns the DPSO parameters used throughout this
// repository: Iterations matching the paper's SA budget and operator
// probabilities in the customary Pan-style range. The paper does not
// publish w, c1 and c2; w = 0.5 is calibrated so that the asynchronous
// GPU ensemble reproduces the paper's reported behaviour (DPSO
// competitive with SA up to ~50 jobs, degrading beyond — see
// EXPERIMENTS.md for the sensitivity of this choice).
func DefaultConfig() Config {
	return Config{
		Iterations: 1000,
		Swarm:      64,
		W:          0.5,
		C1:         0.8,
		C2:         0.8,
	}
}

// Config are the DPSO parameters.
type Config struct {
	// Iterations is the number of swarm generations.
	Iterations int
	// Swarm is the particle count for the serial solver (the parallel
	// ensemble supplies one particle per simulated thread instead).
	Swarm int
	// W is the probability of the swap "velocity" operator F1.
	W float64
	// C1 is the probability of the cognition crossover F2 (with pbest).
	C1 float64
	// C2 is the probability of the social crossover F3 (with gbest).
	C2 float64
}

// Normalized returns the config with unset fields defaulted: non-positive
// Iterations/Swarm, probabilities outside [0,1], and the all-zero
// probability triple (i.e. the zero value of Config, whose particles
// could never move) take their DefaultConfig values. An individual zero
// probability among non-zero ones is honored and disables that operator.
func (c Config) Normalized() Config {
	d := DefaultConfig()
	if c.Iterations <= 0 {
		c.Iterations = d.Iterations
	}
	if c.Swarm <= 0 {
		c.Swarm = d.Swarm
	}
	if c.W == 0 && c.C1 == 0 && c.C2 == 0 {
		c.W, c.C1, c.C2 = d.W, d.C1, d.C2
	}
	if c.W < 0 || c.W > 1 {
		c.W = d.W
	}
	if c.C1 < 0 || c.C1 > 1 {
		c.C1 = d.C1
	}
	if c.C2 < 0 || c.C2 > 1 {
		c.C2 = d.C2
	}
	return c
}

// Move applies Equation (3) to pos in place:
//
//	pos ← c2 ⊕ F3( c1 ⊕ F2( w ⊕ F1(pos), pbest ), gbest )
//
// Each operator fires when a Float64 draw from rng falls below its
// probability (W, C1, C2) and otherwise passes its input through. scratch
// is a row of pos's length; pbest and gbest (which may be the same row)
// must alias neither pos nor scratch. ops supplies the crossovers'
// used-markers. It is the one position update of every DPSO engine:
// Particle.Update runs it on the host's []int rows and the GPUDPSO update
// kernel on the simulated device's []int32 rows.
func Move[S ~int | ~int32](cfg Config, rng *xrand.XORWOW, ops *perm.Ops, pos, pbest, gbest, scratch []S) {
	// Velocity: λ = w ⊕ F1(pos).
	if rng.Float64() < cfg.W {
		perm.Swap(rng, pos)
	}
	// cur holds the operator chain's latest output; spare is the other
	// row, so a crossover's source and destination never alias.
	cur, spare := pos, scratch
	// Cognition: δ = c1 ⊕ F2(λ, pbest).
	if rng.Float64() < cfg.C1 {
		perm.OnePoint(ops, rng, spare, cur, pbest)
		cur, spare = spare, cur
	}
	// Social: pos' = c2 ⊕ F3(δ, gbest).
	if rng.Float64() < cfg.C2 {
		perm.TwoPoint(ops, rng, spare, cur, gbest)
		cur = spare
	}
	copy(pos, cur)
}

// Particle is one swarm member. Particles own their scratch, so distinct
// particles may be updated concurrently (each against its own evaluator).
type Particle struct {
	cfg Config
	rng *xrand.XORWOW
	ops *perm.Ops

	pos       []int
	posCost   int64
	pbest     []int
	pbestCost int64

	scratch []int
}

// NewParticle creates a particle with a uniformly random position,
// evaluated with eval.
func NewParticle(cfg Config, eval core.Evaluator, rng *xrand.XORWOW) *Particle {
	n := eval.Instance().GenomeLen()
	p := &Particle{
		cfg:     cfg.Normalized(),
		rng:     rng,
		ops:     perm.NewOps(n),
		pos:     perm.Random(rng, n),
		pbest:   make([]int, n),
		scratch: make([]int, n),
	}
	p.posCost = eval.Cost(p.pos)
	copy(p.pbest, p.pos)
	p.pbestCost = p.posCost
	return p
}

// Position returns the particle's current sequence (borrowed) and cost.
func (p *Particle) Position() ([]int, int64) { return p.pos, p.posCost }

// Best returns the particle's personal best (borrowed) and cost.
func (p *Particle) Best() ([]int, int64) { return p.pbest, p.pbestCost }

// Update applies Equation (3) against the given swarm best (which must
// not be the particle's own position), evaluates the new position with
// eval and refreshes the personal best. It returns the new position's
// cost.
func (p *Particle) Update(gbest []int, eval core.Evaluator) int64 {
	Move(p.cfg, p.rng, p.ops, p.pos, p.pbest, gbest, p.scratch)
	p.posCost = eval.Cost(p.pos)
	if p.posCost < p.pbestCost {
		copy(p.pbest, p.pos)
		p.pbestCost = p.posCost
	}
	return p.posCost
}

// Swarm is the serial DPSO solver: Config.Swarm particles sharing one
// evaluator, with a synchronous global best: every particle of a
// generation moves against the previous generation's gbest.
type Swarm struct {
	cfg       Config
	eval      core.Evaluator
	particles []*Particle
	gbest     []int
	gbestCost int64
	evals     int64
}

// NewSwarm initializes the swarm (Algorithm 2 lines 1–2) with per-particle
// RNG sub-streams of the given seed.
func NewSwarm(cfg Config, eval core.Evaluator, seed uint64) *Swarm {
	cfg = cfg.Normalized()
	s := &Swarm{cfg: cfg, eval: eval}
	n := eval.Instance().GenomeLen()
	s.gbest = make([]int, n)
	s.gbestCost = int64(1) << 62
	for i := 0; i < cfg.Swarm; i++ {
		p := NewParticle(cfg, eval, xrand.NewStream(seed, uint64(i)))
		s.particles = append(s.particles, p)
		s.evals++
		if p.posCost < s.gbestCost {
			copy(s.gbest, p.pos)
			s.gbestCost = p.posCost
		}
	}
	return s
}

// Step runs one generation: update and evaluate every particle against
// the swarm best, then refresh the swarm best (Algorithm 2 lines 4–7).
func (s *Swarm) Step() {
	for _, p := range s.particles {
		p.Update(s.gbest, s.eval)
		s.evals++
	}
	for _, p := range s.particles {
		if p.pbestCost < s.gbestCost {
			copy(s.gbest, p.pbest)
			s.gbestCost = p.pbestCost
		}
	}
}

// Run executes the configured number of generations and returns the best
// cost found.
func (s *Swarm) Run() int64 {
	for i := 0; i < s.cfg.Iterations; i++ {
		s.Step()
	}
	return s.gbestCost
}

// Best returns the swarm's best sequence (borrowed) and cost.
func (s *Swarm) Best() ([]int, int64) { return s.gbest, s.gbestCost }

// Evaluations returns the number of fitness evaluations performed.
func (s *Swarm) Evaluations() int64 { return s.evals }
