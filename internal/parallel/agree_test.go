package parallel

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dpso"
	"repro/internal/orlib"
	"repro/internal/problem"
	"repro/internal/sa"
)

// agreeInstances is the instance table of TestCPUAndGPUEnginesAgree:
// single-machine CDD and UCDDCP, and the genome-coded EARLYWORK m=2 and
// CDD m=3 shapes.
func agreeInstances(t *testing.T) []*problem.Instance {
	t.Helper()
	must := func(ins []*problem.Instance, err error) []*problem.Instance {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	var out []*problem.Instance
	out = append(out, must(orlib.BenchmarkCDD(30, 2, orlib.DefaultSeed))...)
	out = append(out, must(orlib.BenchmarkUCDDCP(30, 2, orlib.DefaultSeed))...)
	out = append(out, must(orlib.BenchmarkEarlyWork(20, 2, 1, 7))...)
	for _, in := range must(orlib.BenchmarkCDD(20, 1, orlib.DefaultSeed)) {
		in.Machines = 3
		out = append(out, in)
	}
	return out
}

// TestCPUAndGPUEnginesAgree checks that the simulated-GPU engines run the
// CPU ensembles' chains exactly: with T₀ fixed (the GPU engines estimate
// one T₀ per solve, the CPU chains one each), the same seed and one chain
// per simulated thread, AsyncSA (serial and parallel), GPUSA and
// PersistentGPUSA return the same best cost and sequence, and so do
// ParallelDPSO (serial and parallel) and GPUDPSO in both communication
// modes.
func TestCPUAndGPUEnginesAgree(t *testing.T) {
	const seed, grid, block = 9, 2, 8
	saCfg := sa.DefaultConfig()
	saCfg.T0 = 37.5
	saCfg.Iterations = 200
	psoCfg := dpso.DefaultConfig()
	psoCfg.Iterations = 100
	ens := Ensemble{Chains: grid * block, Seed: seed, Workers: 2}
	solve := func(t *testing.T, s core.Solver, in *problem.Instance) core.Result {
		t.Helper()
		r, err := s.Solve(context.Background(), in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		return r
	}
	same := func(t *testing.T, label string, want, got core.Result) {
		t.Helper()
		if got.BestCost != want.BestCost || !slices.Equal(got.BestSeq, want.BestSeq) {
			t.Errorf("%s: best %d %v, want %d %v", label, got.BestCost, got.BestSeq, want.BestCost, want.BestSeq)
		}
	}
	for _, in := range agreeInstances(t) {
		t.Run(fmt.Sprintf("%s/m%d", in.Name, in.MachineCount()), func(t *testing.T) {
			ref := solve(t, &GPUSA{SA: saCfg, Grid: grid, Block: block, Seed: seed}, in)
			for _, s := range []core.Solver{
				&PersistentGPUSA{SA: saCfg, Grid: grid, Block: block, Seed: seed},
				&AsyncSA{Label: "AsyncSA/serial", SA: saCfg, Ens: ens},
				&AsyncSA{Label: "AsyncSA/parallel", SA: saCfg, Ens: ens, Parallel: true},
			} {
				same(t, s.Name(), ref, solve(t, s, in))
			}
			for _, share := range []bool{false, true} {
				gpu := solve(t, &GPUDPSO{PSO: psoCfg, Grid: grid, Block: block, Seed: seed, ShareSwarmBest: share}, in)
				for _, parallel := range []bool{false, true} {
					cpu := solve(t, &ParallelDPSO{PSO: psoCfg, Ens: ens, Parallel: parallel, ShareSwarmBest: share}, in)
					same(t, fmt.Sprintf("ParallelDPSO(parallel=%v, share=%v)", parallel, share), gpu, cpu)
				}
			}
		})
	}
}

// TestCPUSolvesShareOneSoASnapshot checks that a CPU solve hoists the
// instance into one structure-of-arrays snapshot shared by every chain:
// the bytes a solve allocates per extra chain must not depend on the
// snapshot's width. A UCDDCP snapshot carries two more int64 columns than
// a CDD one of the same size; the chains' own state is the same for both
// kinds.
func TestCPUSolvesShareOneSoASnapshot(t *testing.T) {
	const n = 1000
	cfg := sa.DefaultConfig()
	cfg.T0 = 10
	cfg.Iterations = 1
	pso := dpso.DefaultConfig()
	pso.Iterations = 1
	engines := []struct {
		name  string
		solve func(in *problem.Instance, chains int) (core.Result, error)
	}{
		{"AsyncSA", func(in *problem.Instance, chains int) (core.Result, error) {
			return (&AsyncSA{SA: cfg, Ens: Ensemble{Chains: chains, Seed: 1}}).Solve(context.Background(), in)
		}},
		{"SyncSA", func(in *problem.Instance, chains int) (core.Result, error) {
			return (&SyncSA{SA: cfg, Ens: Ensemble{Chains: chains, Seed: 1}, MarkovLen: 1, Levels: 1}).Solve(context.Background(), in)
		}},
		{"ParallelDPSO", func(in *problem.Instance, chains int) (core.Result, error) {
			return (&ParallelDPSO{PSO: pso, Ens: Ensemble{Chains: chains, Seed: 1}}).Solve(context.Background(), in)
		}},
	}
	// perChain is the least, over a few rounds, of the extra bytes a solve
	// allocates for 12 more chains, divided by 12.
	perChain := func(t *testing.T, solve func(*problem.Instance, int) (core.Result, error), in *problem.Instance) int64 {
		t.Helper()
		alloc := func(chains int) int64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := solve(in, chains); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			return int64(ms.TotalAlloc - before)
		}
		best := int64(1) << 62
		for round := 0; round < 3; round++ {
			best = min(best, (alloc(16)-alloc(4))/12)
		}
		return best
	}
	cdd, uc := benchInstanceCDD(n), benchInstanceUCDDCP(n)
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			c, u := perChain(t, e.solve, cdd), perChain(t, e.solve, uc)
			// Two int64 columns per chain would add 16n bytes; allow half.
			if u-c >= 8*n {
				t.Errorf("per-chain bytes: UCDDCP %d, CDD %d; the difference %d reaches 8n = %d, so each chain copies the instance", u, c, u-c, 8*n)
			}
		})
	}
}
