package duedate_test

// Runnable godoc examples for the facade. Every exported top-level
// function has one (enforced by `docslint -examples .` in the docs-lint
// CI job); outputs are pinned under fixed seeds, so the examples double
// as smoke tests of the documented behavior. The two Register examples
// have no Output and are therefore compile-checked only — actually
// running them would mutate the process-wide driver registry.

import (
	"context"
	"fmt"
	"time"

	duedate "repro"
	"repro/internal/core"
	"repro/internal/problem"
)

// ExampleSolveContext solves the paper's worked 5-job CDD example with
// the serial SA engine under a fixed seed — the minimal deterministic
// solve.
func ExampleSolveContext() {
	in := duedate.PaperExample(duedate.CDD)
	res, err := duedate.SolveContext(context.Background(), in, duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUSerial,
		Iterations: 200, Grid: 1, Block: 8, TempSamples: 50, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("cost:", res.BestCost)
	// Output:
	// cost: 81
}

// ExampleSolveContext_auto routes through the AUTO portfolio driver: on
// a small agreeable instance the calibration gates dispatch EXACT-DP and
// the result carries a machine-checked optimality certificate for free.
func ExampleSolveContext_auto() {
	p := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	w := []int{2, 7, 1, 8, 2, 8, 1, 8, 2, 8}
	in, err := duedate.NewCDDInstance("auto-example", p, w, w, 45)
	if err != nil {
		panic(err)
	}
	res, err := duedate.SolveContext(context.Background(), in, duedate.Options{
		Algorithm: duedate.Auto, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("cost:", res.BestCost, "optimal:", res.Optimal)
	// Output:
	// cost: 204 optimal: true
}

// ExampleSolveContext_deadline shows the cooperative wall-clock budget:
// the engine stops at the deadline and returns the honest best-so-far.
func ExampleSolveContext_deadline() {
	in := duedate.PaperExample(duedate.CDD)
	res, err := duedate.SolveContext(context.Background(), in, duedate.Options{
		Algorithm: duedate.SA, Engine: duedate.EngineCPUSerial,
		Seed: 1, Deadline: time.Now().Add(50 * time.Millisecond),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("feasible:", problem.IsPermutation(res.BestSeq))
	// Output:
	// feasible: true
}

// ExampleSolve is the context-free convenience wrapper.
func ExampleSolve() {
	res, err := duedate.Solve(duedate.PaperExample(duedate.CDD), duedate.Options{
		Algorithm: duedate.ES, Engine: duedate.EngineCPUSerial,
		Iterations: 100, Grid: 1, Block: 8, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("cost:", res.BestCost)
	// Output:
	// cost: 81
}

// ExampleNewBatchEvaluator scores a small batch of candidate sequences
// in one call — the zero-alloc path for evaluating populations without
// a full Solve.
func ExampleNewBatchEvaluator() {
	in := duedate.PaperExample(duedate.CDD)
	be := duedate.NewBatchEvaluator(in)
	rows := []int{
		0, 1, 2, 3, 4, // identity (the paper's optimal order)
		4, 3, 2, 1, 0, // reversed
	}
	costs := make([]int64, 2)
	be.CostRows(rows, costs)
	fmt.Println(costs)
	// Output:
	// [81 160]
}

// ExampleCost evaluates one explicit sequence exactly (with the optimal
// idle insertion implied by the model).
func ExampleCost() {
	in := duedate.PaperExample(duedate.CDD)
	c, err := duedate.Cost(in, []int{0, 1, 2, 3, 4})
	if err != nil {
		panic(err)
	}
	fmt.Println(c)
	// Output:
	// 81
}

// ExampleOptimizeSequence recovers the full schedule of a sequence: the
// optimal start time and, on UCDDCP, the per-job compressions.
func ExampleOptimizeSequence() {
	in := duedate.PaperExample(duedate.UCDDCP)
	sched, cost, err := duedate.OptimizeSequence(in, []int{0, 1, 2, 3, 4})
	if err != nil {
		panic(err)
	}
	fmt.Println("cost:", cost, "start:", sched.Start)
	// Output:
	// cost: 77 start: 11
}

// ExamplePaperExample loads the paper's worked Table I instance.
func ExamplePaperExample() {
	in := duedate.PaperExample(duedate.CDD)
	fmt.Println(in.Kind, in.N(), "jobs, d =", in.D)
	// Output:
	// CDD 5 jobs, d = 16
}

// ExampleNewCDDInstance builds a common-due-date instance from parallel
// parameter slices.
func ExampleNewCDDInstance() {
	in, err := duedate.NewCDDInstance("three-jobs",
		[]int{4, 2, 3}, []int{1, 2, 1}, []int{3, 1, 2}, 6)
	if err != nil {
		panic(err)
	}
	c, _ := duedate.Cost(in, []int{1, 0, 2})
	fmt.Println(in.N(), "jobs, cost:", c)
	// Output:
	// 3 jobs, cost: 14
}

// ExampleNewUCDDCPInstance builds a controllable-processing-time
// instance (m holds minimum processing times, gamma the compression
// penalties; d must be unrestricted).
func ExampleNewUCDDCPInstance() {
	in, err := duedate.NewUCDDCPInstance("compressible",
		[]int{4, 2, 3}, []int{2, 1, 2}, []int{1, 2, 1}, []int{3, 1, 2}, []int{2, 2, 2}, 9)
	if err != nil {
		panic(err)
	}
	fmt.Println(in.Kind, in.N(), "jobs")
	// Output:
	// UCDDCP 3 jobs
}

// ExampleNewEarlyWorkInstance builds a parallel-machine early-work
// instance; solutions are delimiter genomes of length n + machines − 1.
func ExampleNewEarlyWorkInstance() {
	in, err := duedate.NewEarlyWorkInstance("two-machines", []int{3, 1, 4, 1}, 2, 4)
	if err != nil {
		panic(err)
	}
	fmt.Println(in.N(), "jobs on", in.MachineCount(), "machines, genome length", in.GenomeLen())
	// Output:
	// 4 jobs on 2 machines, genome length 5
}

// ExampleGenerateCDDBenchmark generates the OR-library-style benchmark
// for one size: records × the four restrictive h factors, fully
// deterministic for a fixed seed.
func ExampleGenerateCDDBenchmark() {
	ins, err := duedate.GenerateCDDBenchmark(10, 1, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(ins), "instances; first:", ins[0].Name)
	// Output:
	// 4 instances; first: sch10/k0/h0.2
}

// ExampleGenerateUCDDCPBenchmark generates the controllable benchmark
// (unrestricted due dates) for one size.
func ExampleGenerateUCDDCPBenchmark() {
	ins, err := duedate.GenerateUCDDCPBenchmark(10, 2, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(ins), "instances; kind:", ins[0].Kind)
	// Output:
	// 2 instances; kind: UCDDCP
}

// ExampleGenerateEarlyWorkBenchmark generates the parallel-machine
// early-work benchmark for one size and machine count.
func ExampleGenerateEarlyWorkBenchmark() {
	ins, err := duedate.GenerateEarlyWorkBenchmark(10, 2, 1, 7)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(ins), "instances; machines:", ins[0].MachineCount())
	// Output:
	// 4 instances; machines: 2
}

// ExampleParseAlgorithm parses the textual algorithm spelling used by
// flags and the HTTP API.
func ExampleParseAlgorithm() {
	a, err := duedate.ParseAlgorithm("AUTO")
	if err != nil {
		panic(err)
	}
	fmt.Println(a)
	// Output:
	// AUTO
}

// ExampleParseEngine parses the textual engine spelling.
func ExampleParseEngine() {
	e, err := duedate.ParseEngine("cpu-parallel")
	if err != nil {
		panic(err)
	}
	fmt.Println(e)
	// Output:
	// cpu-parallel
}

// ExampleValidateOptions pre-validates options without running a solve —
// the server uses it to reject doomed submissions up front and keys its
// result cache on the normalized options it returns.
func ExampleValidateOptions() {
	_, err := duedate.ValidateOptions(duedate.Options{Grid: -1})
	fmt.Println(err != nil)
	opts, _ := duedate.ValidateOptions(duedate.Options{})
	fmt.Println(opts.Grid, opts.Block, opts.Seed)
	// Output:
	// true
	// 4 192 1
}

// ExamplePairings enumerates the live algorithm×engine registry (sorted,
// the same data GET /v1/pairings serves).
func ExamplePairings() {
	for _, p := range duedate.Pairings() {
		if p.Algorithm == duedate.Auto || p.Algorithm == duedate.ExactDP {
			fmt.Printf("%s/%s machines=%t\n", p.Algorithm, p.Engine, p.Machines)
		}
	}
	// Output:
	// EXACT-DP/cpu-serial machines=true
	// AUTO/cpu-parallel machines=true
}

// ExampleRegisterDriver shows the init-time self-registration hook an
// engine package uses to enroll a pairing. Compile-checked only: running
// it would replace the live SA/cpu-serial driver for the whole process.
func ExampleRegisterDriver() {
	duedate.RegisterDriver(duedate.SA, duedate.EngineCPUSerial, func(o duedate.Options) core.Solver {
		return mySolver{opts: o}
	})
}

// ExampleRegisterDriverCaps registers a pairing with an explicit
// capability surface (problem kinds, parallel-machine support), the way
// the exact layer declares its narrow domain. Compile-checked only.
func ExampleRegisterDriverCaps() {
	duedate.RegisterDriverCaps(duedate.SA, duedate.EngineCPUSerial, func(o duedate.Options) core.Solver {
		return mySolver{opts: o}
	}, []duedate.Kind{duedate.CDD}, false)
}

// mySolver is the stub solver of the Register examples.
type mySolver struct{ opts duedate.Options }

func (mySolver) Name() string { return "example" }
func (mySolver) Solve(ctx context.Context, in *problem.Instance) (core.Result, error) {
	seq := problem.IdentitySequence(in.GenomeLen())
	return core.Result{BestSeq: seq, BestCost: core.NewEvaluator(in).Cost(seq)}, nil
}
