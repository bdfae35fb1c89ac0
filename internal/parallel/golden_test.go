package parallel

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/orlib"
	"repro/internal/problem"
	"repro/internal/sa"
)

// goldenSA is the configuration the golden values below were captured
// under (with the full O(n) evaluators, before the incremental delta
// path existed).
func goldenSA() sa.Config {
	cfg := sa.DefaultConfig()
	cfg.Iterations = 80
	cfg.TempSamples = 60
	return cfg
}

// TestGoldenFixedSeedResults pins every solver's fixed-seed output to the
// values produced by the full-evaluation code path. The incremental
// propose/commit evaluators must price each candidate bit-identically and
// consume no randomness of their own, so trajectories — and therefore
// these best costs and evaluation counts — must never drift.
func TestGoldenFixedSeedResults(t *testing.T) {
	type golden struct {
		name  string
		inst  *problem.Instance
		run   func(t *testing.T, in *problem.Instance) (best, evals int64)
		best  int64
		evals int64 // 0 means unchecked
	}
	// Every runner goes through the explicit context-aware Solve path (a
	// background context that never expires must be invisible: same
	// trajectories, same results as before the engine-layer refactor).
	ctx := context.Background()
	mustRun := func(t *testing.T, r core.Result, err error) core.Result {
		t.Helper()
		if err != nil {
			t.Fatalf("Solve failed: %v", err)
		}
		if r.Interrupted {
			t.Fatal("uncancelled run reported Interrupted")
		}
		return r
	}
	async := func(t *testing.T, in *problem.Instance) (int64, int64) {
		r, err := (&AsyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 10, Seed: 3}, Parallel: true}).Solve(ctx, in)
		r = mustRun(t, r, err)
		return r.BestCost, r.Evaluations
	}
	gpu := func(t *testing.T, in *problem.Instance) (int64, int64) {
		r, err := (&GPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6}).Solve(ctx, in)
		return mustRun(t, r, err).BestCost, 0
	}
	persistent := func(t *testing.T, in *problem.Instance) (int64, int64) {
		r, err := (&PersistentGPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6}).Solve(ctx, in)
		return mustRun(t, r, err).BestCost, 0
	}
	sync := func(t *testing.T, in *problem.Instance) (int64, int64) {
		r, err := (&SyncSA{SA: goldenSA(), Ens: Ensemble{Chains: 8, Seed: 5}, MarkovLen: 5, Levels: 12, Parallel: true}).Solve(ctx, in)
		return mustRun(t, r, err).BestCost, 0
	}

	cdd15, cdd40 := benchInstanceCDD(15), benchInstanceCDD(40)
	uc15, uc40 := benchInstanceUCDDCP(15), benchInstanceUCDDCP(40)
	cases := []golden{
		{"AsyncSA/CDD/n15", cdd15, async, 2260, 1410},
		{"AsyncSA/UCDDCP/n15", uc15, async, 2218, 1410},
		{"AsyncSA/CDD/n40", cdd40, async, 20981, 1410},
		{"AsyncSA/UCDDCP/n40", uc40, async, 12062, 0},
		{"GPUSA/CDD/n15", cdd15, gpu, 2321, 0},
		{"GPUSA/UCDDCP/n15", uc15, gpu, 2389, 0},
		{"GPUSA/CDD/n40", cdd40, gpu, 20539, 0},
		{"GPUSA/UCDDCP/n40", uc40, gpu, 11354, 0},
		{"PersistentGPUSA/CDD/n15", cdd15, persistent, 2321, 0},
		{"PersistentGPUSA/CDD/n40", cdd40, persistent, 20539, 0},
		{"SyncSA/CDD/n15", cdd15, sync, 2222, 0},
		{"SyncSA/CDD/n40", cdd40, sync, 16817, 0},
	}
	for _, g := range cases {
		g := g
		t.Run(g.name, func(t *testing.T) {
			best, evals := g.run(t, g.inst)
			if best != g.best {
				t.Errorf("best cost drifted from full-evaluation golden: got %d, want %d", best, g.best)
			}
			if g.evals != 0 && evals != g.evals {
				t.Errorf("evaluation count drifted: got %d, want %d", evals, g.evals)
			}
		})
	}
}

// goldenSimSecondsUCDDCP is the simulated device time of the fixed-seed
// GPUSA UCDDCP n=40 run below, captured from the seven-pass UCDDCP core
// that preceded the forward-sweep one. The fitness kernel charges cycles
// from ucddcp.OptimizeArrays' abstract op count, so any drift in that
// count moves this value.
const goldenSimSecondsUCDDCP = 0.0029333994193548488

// TestGoldenSimSecondsUCDDCP pins the simulated device time of one
// fixed-seed GPUSA UCDDCP run exactly.
func TestGoldenSimSecondsUCDDCP(t *testing.T) {
	r, err := (&GPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6}).Solve(context.Background(), benchInstanceUCDDCP(40))
	if err != nil {
		t.Fatal(err)
	}
	if r.SimSeconds != goldenSimSecondsUCDDCP {
		t.Errorf("SimSeconds = %v, want %v", r.SimSeconds, goldenSimSecondsUCDDCP)
	}
}

// TestGoldenSimSecondsFullPassKernels pins the exact simulated device
// time and best cost of fixed-seed GPU runs whose kernels already scored
// with the full-pass fitness step before the single-machine CDD kernels
// dropped their incremental (propose/commit) pricing: the scattered and
// texture ablations, the persistent kernel on UCDDCP, GPU DPSO and the
// genome-coded EARLYWORK pipelines. Their charges did not move with that
// change, and the values were captured before it.
func TestGoldenSimSecondsFullPassKernels(t *testing.T) {
	ctx := context.Background()
	cdd40, uc40 := benchInstanceCDD(40), benchInstanceUCDDCP(40)
	ew, err := orlib.BenchmarkEarlyWork(20, 2, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		s    core.Solver
		in   *problem.Instance
		sim  float64
		cost int64
	}{
		{"GPUSA/CDD/scattered", &GPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6, PTimeAccess: PAccessScattered}, cdd40, 0.0034512936129032254, 20539},
		{"GPUSA/CDD/texture", &GPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6, PTimeAccess: PAccessTexture}, cdd40, 0.002638576193548394, 20539},
		{"PersistentGPUSA/UCDDCP", &PersistentGPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6}, uc40, 0.0009163832903225808, 11354},
		{"GPUDPSO/CDD", &GPUDPSO{PSO: dpso.Config{Iterations: 30}, Grid: 2, Block: 8, Seed: 6}, cdd40, 0.0010166161935483862, 25409},
		{"GPUSA/EARLYWORK/m2", &GPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6}, ew[0], 0.0022317925322580642, 175},
		{"PersistentGPUSA/EARLYWORK/m2", &PersistentGPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6}, ew[0], 0.0005114222096774195, 175},
	}
	for _, c := range cases {
		r, err := c.s.Solve(ctx, c.in)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if r.SimSeconds != c.sim || r.BestCost != c.cost {
			t.Errorf("%s: SimSeconds %v, BestCost %d; want %v, %d", c.name, r.SimSeconds, r.BestCost, c.sim, c.cost)
		}
	}
}
