package parallel

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/heuristic"
)

// TestPAccessModesIdenticalResults: the processing-time access mode is a
// pure timing-model choice — optimization results must be bit-identical
// across all three modes, while the simulated times differ.
func TestPAccessModesIdenticalResults(t *testing.T) {
	in := benchInstanceCDD(40)
	cfg := smallSA()
	cfg.Iterations = 60
	run := func(mode PAccess) core.Result {
		return (&GPUSA{
			Inst: in, SA: cfg, Grid: 2, Block: 16, Seed: 9,
			PTimeAccess: mode,
		}).MustSolve()
	}
	coal := run(PAccessCoalesced)
	scat := run(PAccessScattered)
	tex := run(PAccessTexture)
	if coal.BestCost != scat.BestCost || coal.BestCost != tex.BestCost {
		t.Fatalf("access modes changed results: %d / %d / %d", coal.BestCost, scat.BestCost, tex.BestCost)
	}
	if !(scat.SimSeconds > coal.SimSeconds) {
		t.Errorf("scattered reads not slower: %g vs %g", scat.SimSeconds, coal.SimSeconds)
	}
	if !(tex.SimSeconds < scat.SimSeconds) {
		t.Errorf("texture path not faster than scattered: %g vs %g", tex.SimSeconds, scat.SimSeconds)
	}
}

// TestInitialSeqWarmStart: with a warm start, the ensemble's best can
// never be worse than the starting sequence itself (chains keep their
// per-thread bests from the initial state).
func TestInitialSeqWarmStart(t *testing.T) {
	in := benchInstanceCDD(30)
	warm := heuristic.VShape(in)
	eval := core.NewEvaluator(in)
	warmCost := eval.Cost(warm)
	cfg := smallSA()
	cfg.Iterations = 30
	res := (&GPUSA{
		Inst: in, SA: cfg, Grid: 2, Block: 8, Seed: 4,
		InitialSeq: warm,
	}).MustSolve()
	if res.BestCost > warmCost {
		t.Errorf("warm-started ensemble (%d) lost its initial solution (%d)", res.BestCost, warmCost)
	}
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Errorf("reported %d, evaluates to %d", res.BestCost, got)
	}
}

// TestDPSOSharedBeatsAsyncHere documents the ablation finding on this
// substrate: with communication, DPSO is at least as good as without, on
// a mid-size instance with a healthy budget.
func TestDPSOSharedBeatsAsyncHere(t *testing.T) {
	in := benchInstanceCDD(60)
	mk := func(share bool) int64 {
		return (&GPUDPSO{
			Inst: in, PSO: dpsoCfg(300), Grid: 2, Block: 24, Seed: 3,
			ShareSwarmBest: share,
		}).MustSolve().BestCost
	}
	async, shared := mk(false), mk(true)
	if shared > async {
		t.Errorf("shared-gbest DPSO (%d) worse than asynchronous (%d) — ablation claim violated", shared, async)
	}
}

// TestReduceEveryDoesNotChangeResult: reduction frequency only affects
// when the tracked best is folded; the final answer is identical.
func TestReduceEveryDoesNotChangeResult(t *testing.T) {
	in := benchInstanceCDD(20)
	cfg := smallSA()
	cfg.Iterations = 50
	run := func(every int) int64 {
		return (&GPUSA{
			Inst: in, SA: cfg, Grid: 1, Block: 16, Seed: 5,
			ReduceEvery: every,
		}).MustSolve().BestCost
	}
	a, b, c := run(1), run(10), run(50)
	if a != b || a != c {
		t.Errorf("reduce frequency changed results: %d / %d / %d", a, b, c)
	}
}

// TestPersistentMatchesPipelined: the persistent-kernel variant consumes
// the per-thread RNG streams in the four-kernel pipeline's order, so for
// a fixed seed both engines must return identical best costs.
func TestPersistentMatchesPipelined(t *testing.T) {
	for _, n := range []int{12, 35} {
		in := benchInstanceCDD(n)
		cfg := smallSA()
		cfg.Iterations = 80
		pipe := (&GPUSA{Inst: in, SA: cfg, Grid: 2, Block: 16, Seed: 21}).MustSolve()
		pers := (&PersistentGPUSA{Inst: in, SA: cfg, Grid: 2, Block: 16, Seed: 21}).MustSolve()
		if pipe.BestCost != pers.BestCost {
			t.Errorf("n=%d: pipelined %d != persistent %d", n, pipe.BestCost, pers.BestCost)
		}
		if pers.SimSeconds >= pipe.SimSeconds {
			t.Errorf("n=%d: persistent kernel (%gs) not faster than 4-kernel pipeline (%gs)",
				n, pers.SimSeconds, pipe.SimSeconds)
		}
	}
}

// TestPersistentOnUCDDCP exercises the persistent kernel on the
// controllable problem.
func TestPersistentOnUCDDCP(t *testing.T) {
	in := benchInstanceUCDDCP(15)
	cfg := smallSA()
	cfg.Iterations = 60
	res := (&PersistentGPUSA{Inst: in, SA: cfg, Grid: 2, Block: 8, Seed: 13}).MustSolve()
	eval := core.NewEvaluator(in)
	if got := eval.Cost(res.BestSeq); got != res.BestCost {
		t.Errorf("reported %d, evaluates to %d", res.BestCost, got)
	}
}

// TestGPUFrontEndsRejectChainLimit: the packed best reductions index
// threads in 20 bits, so every GPU front end must refuse a 2048 × 512
// (2^20-thread) launch — before allocating its per-thread state, which
// at that size alone would take over a million allocations.
func TestGPUFrontEndsRejectChainLimit(t *testing.T) {
	in := benchInstanceCDD(15)
	for name, s := range map[string]core.Solver{
		"GPUSA":           &GPUSA{SA: smallSA(), Grid: 2048, Block: 512},
		"PersistentGPUSA": &PersistentGPUSA{SA: smallSA(), Grid: 2048, Block: 512},
		"GPUDPSO":         &GPUDPSO{Grid: 2048, Block: 512},
	} {
		var err error
		allocs := testing.AllocsPerRun(1, func() {
			_, err = s.Solve(context.Background(), in)
		})
		if err == nil {
			t.Errorf("%s: 2048 × 512 threads accepted", name)
		}
		if allocs > 100 {
			t.Errorf("%s: %v allocations before rejecting the launch", name, allocs)
		}
	}
}
