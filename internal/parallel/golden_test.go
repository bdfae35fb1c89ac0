package parallel

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/cudasim"
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

// TestGoldenDeviceProfile pins the whole device model of two fixed-seed
// runs: every field of every kernel's profiler stats and of both
// transfer directions. The values were captured before kernel launches
// reused their host memory and before the fitness kernel scored its
// rows inside the launch; neither may move a counter or a simulated
// second.
func TestGoldenDeviceProfile(t *testing.T) {
	ctx := context.Background()
	type profile struct {
		kernels  map[string]cudasim.KernelStats
		h2d, d2h cudasim.TransferStats
	}
	cases := []struct {
		name string
		run  func(dev *cudasim.Device) error
		want profile
	}{
		{
			"GPUSA/UCDDCP",
			func(dev *cudasim.Device) error {
				_, err := (&GPUSA{SA: goldenSA(), Grid: 2, Block: 8, Seed: 6, Dev: dev}).Solve(ctx, benchInstanceUCDDCP(40))
				return err
			},
			profile{
				kernels: map[string]cudasim.KernelStats{
					"accept":  {Launches: 80, Blocks: 160, Threads: 1280, ComputeCycles: 0x4100, MemoryCycles: 0xcfc60, GlobalAccesses: 0xd205, ConstReads: 0x500, SimSeconds: 0.0007287225806451603},
					"fitness": {Launches: 81, Blocks: 162, Threads: 1296, ComputeCycles: 0xfea7f, MemoryCycles: 0x189ed0, GlobalAccesses: 0x361b0, SharedAccesses: 0x1c7a0, ConstReads: 0x510, SimSeconds: 0.0009681490322580642},
					"init":    {Launches: 1, Blocks: 2, Threads: 16, MemoryCycles: 0x19a0, GlobalAccesses: 0x520, SimSeconds: 7.1161290322580645e-06},
					"perturb": {Launches: 80, Blocks: 160, Threads: 1280, ComputeCycles: 0x8000, MemoryCycles: 0xfa000, GlobalAccesses: 0x1b800, SimSeconds: 0.0007316438709677425},
					"reduce":  {Launches: 80, Blocks: 160, Threads: 1280, MemoryCycles: 0x5780, GlobalAccesses: 0x500, Atomics: 0x500, SimSeconds: 0.0004072258064516128},
				},
				h2d: cudasim.TransferStats{Count: 7, Bytes: 4168, SimSeconds: 7.052100000000001e-05},
				d2h: cudasim.TransferStats{Count: 2, Bytes: 168, SimSeconds: 2.0021000000000004e-05},
			},
		},
		{
			"GPUDPSO/CDD",
			func(dev *cudasim.Device) error {
				_, err := (&GPUDPSO{PSO: dpso.Config{Iterations: 30}, Grid: 2, Block: 8, Seed: 6, Dev: dev}).Solve(ctx, benchInstanceCDD(40))
				return err
			},
			profile{
				kernels: map[string]cudasim.KernelStats{
					"fitness": {Launches: 31, Blocks: 62, Threads: 496, ComputeCycles: 0x287fc, MemoryCycles: 0x66530, GlobalAccesses: 0xb050, SharedAccesses: 0xae60, ConstReads: 0x1f0, SimSeconds: 0.0002972832258064516},
					"init":    {Launches: 1, Blocks: 2, Threads: 16, MemoryCycles: 0x1a68, GlobalAccesses: 0x520, Atomics: 0x10, SimSeconds: 7.180645161290323e-06},
					"pbest":   {Launches: 30, Blocks: 60, Threads: 480, MemoryCycles: 0x1a7c0, GlobalAccesses: 0x11fd, SimSeconds: 0.00019962580645161305},
					"reduce":  {Launches: 30, Blocks: 60, Threads: 480, MemoryCycles: 0x20d0, GlobalAccesses: 0x1e0, Atomics: 0x1e0, SimSeconds: 0.0001527096774193548},
					"update":  {Launches: 30, Blocks: 60, Threads: 480, ComputeCycles: 0x5dc00, MemoryCycles: 0x5dc00, GlobalAccesses: 0x12c00, SimSeconds: 0.0002893548387096775},
				},
				h2d: cudasim.TransferStats{Count: 5, Bytes: 3528, SimSeconds: 5.044100000000001e-05},
				d2h: cudasim.TransferStats{Count: 2, Bytes: 168, SimSeconds: 2.0021000000000004e-05},
			},
		},
	}
	for _, c := range cases {
		dev := cudasim.NewDevice(cudasim.GT560M())
		if err := c.run(dev); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := dev.Profiler().Kernels()
		if len(got) != len(c.want.kernels) {
			t.Errorf("%s: %d kernels profiled, want %d", c.name, len(got), len(c.want.kernels))
		}
		for name, want := range c.want.kernels {
			if got[name] != want {
				t.Errorf("%s: kernel %q\n got %+v\nwant %+v", c.name, name, got[name], want)
			}
		}
		h2d, d2h := dev.Profiler().Transfers()
		if h2d != c.want.h2d || d2h != c.want.d2h {
			t.Errorf("%s: transfers h2d %+v d2h %+v; want %+v, %+v", c.name, h2d, d2h, c.want.h2d, c.want.d2h)
		}
	}
}
