package parallel

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/obs"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// ParallelDPSO drives the Discrete PSO with one particle per ensemble
// member. By default it mirrors the paper's asynchronous scheme — the
// particles never communicate, so each one's swarm best is its own
// personal best and the reduction only tracks the reported minimum; with
// ShareSwarmBest every generation's reduced best is broadcast to all
// particles (see GPUDPSO for the rationale). With Parallel=false the
// identical swarm is executed on one goroutine as the CPU-time baseline.
type ParallelDPSO struct {
	Label string
	// Inst is the default instance, used when Solve receives nil.
	Inst *problem.Instance
	// PSO holds the particle parameters; its Swarm field is ignored (the
	// ensemble size is the swarm size).
	PSO dpso.Config
	Ens Ensemble
	// Parallel selects the multi-goroutine driver.
	Parallel bool
	// ShareSwarmBest broadcasts the true swarm best each generation
	// instead of the paper's communication-free scheme.
	ShareSwarmBest bool
	// Budget bounds the run (generation override and/or deadline; the
	// deadline applies at generation granularity).
	Budget core.Budget
	// Progress receives a snapshot whenever the swarm best improves.
	Progress core.ProgressFunc
	// Metrics selects the instrumentation level (off by default).
	Metrics core.MetricsLevel
}

// Name implements core.Solver.
func (d *ParallelDPSO) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "ParallelDPSO"
}

// Solve runs the configured generations. Results are deterministic for a
// fixed seed regardless of Parallel: particle i always consumes RNG
// stream i and swarm-best ties resolve to the lowest particle index, as
// in GPUDPSO's packed reduction.
// Cancellation is checked at generation granularity: a done context skips
// the remaining generations and returns the swarm best so far (valid from
// generation zero, since initialization evaluates every particle).
func (d *ParallelDPSO) Solve(ctx context.Context, inst *problem.Instance) (core.Result, error) {
	if inst == nil {
		inst = d.Inst
	}
	ens := d.Ens.normalized()
	cfg := d.PSO.Normalized()
	if d.Budget.Iterations > 0 {
		cfg.Iterations = d.Budget.Iterations
	}
	ctx, cancel := d.Budget.Apply(ctx)
	defer cancel()
	start := time.Now()

	col := obs.NewCollector(d.Metrics)
	soa := core.NewSoAInstance(inst)
	particles := make([]*dpso.Particle, ens.Chains)
	evals := make([]core.Evaluator, ens.Chains)
	phased(col, obs.PhaseInit, func() {
		runOverWorkers(ens.Chains, ens.Workers, d.Parallel, func(i int) {
			evals[i] = core.NewBatchEvaluatorSoA(inst, soa)
			particles[i] = dpso.NewParticle(cfg, evals[i], xrand.NewStream(ens.Seed, uint64(i)))
		})
	})
	col.AddFullEvals(int64(ens.Chains))

	// The swarm best is the packed (cost, particle) minimum over the
	// personal bests, as GPUDPSO's reduction kernel computes it.
	red := newReducer(ens.Chains)
	m := newMeter(d.Progress, start, red)
	reduce := func() {
		for i, p := range particles {
			if seq, cost := p.Best(); red.record(i, seq, cost, 0) {
				m.improved()
			}
		}
	}
	phased(col, obs.PhaseReduce, reduce)

	// In shared mode, particles read the previous generation's swarm best
	// (reduced only after the generation barrier), mirroring the
	// update → fitness → reduce → broadcast kernel sequence of the GPU
	// implementation. In the default asynchronous mode each particle's
	// swarm best is its own personal best.
	var gbest []int
	generations := 0
	interrupted := false
	for g := 0; g < cfg.Iterations; g++ {
		if ctx.Err() != nil {
			interrupted = true
			col.SetInterruptedAt("generation")
			break
		}
		if d.ShareSwarmBest {
			// The winner's row is rewritten only by the reduction, so
			// the update phase may read it in place.
			gbest, _, _ = red.best()
		}
		phased(col, obs.PhaseUpdate, func() {
			runOverWorkers(ens.Chains, ens.Workers, d.Parallel, func(i int) {
				p := particles[i]
				ref, before := p.Best()
				if d.ShareSwarmBest {
					ref = gbest
				}
				// A personal-best refresh is DPSO's acceptance analogue,
				// and it always improves the particle's best-so-far.
				if p.Update(ref, evals[i]) < before {
					col.AddAccepts(1)
					col.AddImprovements(1)
				}
			})
		})
		col.AddFullEvals(int64(ens.Chains))
		phased(col, obs.PhaseReduce, reduce)
		generations++
	}

	res := red.result(inst)
	res.Iterations = cfg.Iterations
	res.Evaluations = int64(ens.Chains) * int64(generations+1)
	res.Elapsed = time.Since(start)
	res.Interrupted = interrupted
	if col.Enabled() {
		workers := 1
		if d.Parallel {
			workers = ens.Workers
		}
		res.Metrics = col.Snapshot(res.Evaluations, ens.Chains, workers, res.Elapsed)
	}
	m.final(res)
	return res, nil
}

// MustSolve is the context-free convenience form of Solve: background
// context, the bound instance, panic on error.
func (d *ParallelDPSO) MustSolve() core.Result { return mustSolve(d, d.Inst) }
