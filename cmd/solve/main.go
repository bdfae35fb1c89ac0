// Command solve solves Common Due-Date (CDD) and Unrestricted Common
// Due-Date with Controllable Processing Times (UCDDCP) instances with
// the hybrid two-layered solvers of the library.
//
// With no flags it solves the paper's worked example of the selected
// kind (-kind cdd or ucddcp; the UCDDCP example has optimal penalty 77).
// To solve a record of an OR-library sch file (CDD) or a UCDDCP record
// file:
//
//	solve -file sch10.txt -n 10 -h 0.6 -record 0
//
// To solve a generated benchmark instance:
//
//	solve -kind ucddcp -size 100 -record 1 -algo sa -engine gpu -iters 5000
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	duedate "repro"
	"repro/internal/orlib"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("solve: ")
	var (
		kindName = flag.String("kind", "cdd", "problem: cdd or ucddcp")
		file     = flag.String("file", "", "record file to read: OR-library sch (cdd) or UCDDCP records (requires -n)")
		n        = flag.Int("n", 0, "jobs per record in -file")
		size     = flag.Int("size", 0, "generate a benchmark instance of this size instead of -file")
		record   = flag.Int("record", 0, "record index within the file or generated benchmark")
		hFactor  = flag.Float64("h", 0.6, "restrictive due-date factor d = ⌊h·ΣP⌋ (cdd only)")
		seed     = flag.Uint64("seed", orlib.DefaultSeed, "benchmark generator seed")
		algo     = duedate.SA
		engine   = duedate.EngineGPU
		iters    = flag.Int("iters", 1000, "iterations per chain")
		grid     = flag.Int("grid", 4, "GPU grid size (blocks)")
		block    = flag.Int("block", 192, "GPU block size (threads per block)")
		rngSeed  = flag.Uint64("solver-seed", 1, "solver RNG seed")
		workers  = flag.Int("workers", 0, "host goroutines for -engine cpu (0 = GOMAXPROCS)")
		timeout  = flag.Duration("timeout", 0, "wall-clock budget; on expiry the best-so-far is printed")
		gantt    = flag.Bool("gantt", false, "print a textual Gantt chart (small n only)")
	)
	flag.Var(&algo, "algo", "algorithm: SA, DPSO, TA or ES")
	flag.Var(&engine, "engine", "engine: gpu, cpu-parallel (cpu) or cpu-serial (serial)")
	flag.Parse()

	var kind duedate.Kind
	switch strings.ToLower(*kindName) {
	case "cdd":
		kind = duedate.CDD
	case "ucddcp":
		kind = duedate.UCDDCP
	default:
		log.Fatalf("unknown -kind %q (want cdd or ucddcp)", *kindName)
	}
	in, err := loadInstance(kind, *file, *n, *size, *record, *hFactor, *seed)
	if err != nil {
		log.Fatal(err)
	}

	opts := duedate.Options{
		Algorithm:  algo,
		Engine:     engine,
		Iterations: *iters,
		Grid:       *grid,
		Block:      *block,
		Seed:       *rngSeed,
		Workers:    *workers,
	}
	if *timeout > 0 {
		opts.Deadline = time.Now().Add(*timeout)
	}

	// Ctrl-C cancels cooperatively: the engine stops at its next
	// chain/level boundary and the best-so-far is printed below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := duedate.SolveContext(ctx, in, opts)
	if err != nil {
		log.Fatal(err)
	}
	sched := res.Schedule(in)
	fmt.Printf("instance    %s (n=%d, d=%d, ΣP=%d)\n", in.Name, in.N(), in.D, in.SumP())
	fmt.Printf("algorithm   %s on %s\n", opts.Algorithm, opts.Engine)
	if res.Interrupted {
		fmt.Println("note        interrupted — best solution found so far:")
	}
	fmt.Printf("best cost   %d\n", res.BestCost)
	fmt.Printf("sequence    %v\n", onesBased(res.BestSeq))
	fmt.Printf("start       %d\n", sched.Start)
	fmt.Printf("wall time   %s\n", res.Elapsed)
	if res.SimSeconds > 0 {
		fmt.Printf("device      %.4f s (simulated)\n", res.SimSeconds)
	}
	if sched.X != nil {
		total := int64(0)
		for job, x := range sched.X {
			if x > 0 {
				fmt.Printf("compress    job %d by %d (P %d → %d, γ %d)\n",
					job+1, x, in.Jobs[job].P, in.Jobs[job].P-int(x), in.Jobs[job].Gamma)
				total += x
			}
		}
		fmt.Printf("compressed  %d time units total\n", total)
	}
	if *gantt {
		fmt.Println(sched.Gantt(in))
	}
}

// loadInstance resolves the instance source — a record file, the
// generator, or the paper example — for the selected kind.
func loadInstance(kind duedate.Kind, file string, n, size, record int, h float64, seed uint64) (*duedate.Instance, error) {
	read, generate := orlib.ReadCDD, orlib.GenerateCDD
	build := func(raw *orlib.Raw, size, k int) (*duedate.Instance, error) {
		return orlib.CDDInstance(raw, size, k, h)
	}
	if kind == duedate.UCDDCP {
		read, generate, build = orlib.ReadUCDDCP, orlib.GenerateUCDDCP, orlib.UCDDCPInstance
	}
	switch {
	case file != "":
		if n <= 0 {
			return nil, fmt.Errorf("-file requires -n (jobs per record)")
		}
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		raws, err := read(f, n)
		if err != nil {
			return nil, err
		}
		if record < 0 || record >= len(raws) {
			return nil, fmt.Errorf("record %d outside [0,%d)", record, len(raws))
		}
		return build(raws[record], n, record)
	case size > 0:
		return build(generate(size, record+1, seed)[record], size, record)
	default:
		return duedate.PaperExample(kind), nil
	}
}

// onesBased renders a 0-based job sequence with the paper's 1-based ids.
func onesBased(seq []int) []int {
	out := make([]int, len(seq))
	for i, v := range seq {
		out[i] = v + 1
	}
	return out
}
