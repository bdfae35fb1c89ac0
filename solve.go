package duedate

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/problem"
	"repro/internal/ucddcp"
)

// Sentinel errors of the facade. Every error returned by SolveContext,
// Solve and OptimizeSequence that stems from caller input wraps one of
// these, so callers branch with errors.Is instead of string matching.
var (
	// ErrUnsupportedPairing reports an algorithm×engine combination with
	// no registered driver (e.g. TA or ES on the GPU engine). The
	// message lists the engines registered for the algorithm.
	ErrUnsupportedPairing = errors.New("unsupported algorithm/engine pairing")
	// ErrInvalidOptions reports Options that fail validation (negative
	// geometry or worker counts, unparseable algorithm/engine names).
	ErrInvalidOptions = errors.New("invalid options")
	// ErrInvalidSequence reports a sequence that is not a permutation of
	// the instance's job indices.
	ErrInvalidSequence = errors.New("invalid sequence")
)

// Algorithm selects the sequence-layer metaheuristic.
type Algorithm int

const (
	// SA is Simulated Annealing (the paper's best performer).
	SA Algorithm = iota
	// DPSO is the Discrete Particle Swarm Optimization of Pan et al.
	DPSO
	// TA is Threshold Accepting (CPU baseline family of [18]).
	TA
	// ES is a (μ+λ) Evolution Strategy (CPU baseline family of [18]).
	ES
	// ExactDP is the pseudo-polynomial exact layer (internal/exact
	// SolveDP): not a metaheuristic — it returns a proven optimum with
	// Result.Optimal set, or a typed error when the instance is outside
	// its domain or state budget. Supports single-machine agreeable CDD
	// and EARLYWORK on any machine count, on the cpu-serial engine only.
	ExactDP
	// Auto is the self-tuning portfolio meta-driver (internal/auto): it
	// routes DP-eligible instances to EXACT-DP for a free optimality
	// certificate, otherwise consults the checked-in calibration table
	// for the predicted-best static pairing (bit-identical to running
	// that pairing directly with the same seed), and — when a Deadline
	// is set — races the top calibration candidates under the shared
	// budget, culling losers at a checkpoint. Result.Metrics records the
	// pick and, for races, the per-candidate phases and the winner.
	Auto
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case SA:
		return "SA"
	case DPSO:
		return "DPSO"
	case TA:
		return "TA"
	case ES:
		return "ES"
	case ExactDP:
		return "EXACT-DP"
	case Auto:
		return "AUTO"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Engine selects where the ensemble runs.
type Engine int

const (
	// EngineGPU runs the four-kernel pipeline on the simulated CUDA
	// device (the paper's implementation). Supported for SA and DPSO.
	EngineGPU Engine = iota
	// EngineCPUParallel runs the same ensemble across host goroutines.
	EngineCPUParallel
	// EngineCPUSerial runs the ensemble on one goroutine — the CPU
	// baseline of the speedup experiments.
	EngineCPUSerial
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineGPU:
		return "gpu"
	case EngineCPUParallel:
		return "cpu-parallel"
	case EngineCPUSerial:
		return "cpu-serial"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Options configures Solve. The zero value reproduces the paper's best
// configuration: GPU-simulated asynchronous SA, 4 blocks × 192 threads,
// 1000 iterations, cooling 0.88, Pert 4, T₀ from 5000 samples.
type Options struct {
	// Algorithm selects the metaheuristic (default SA).
	Algorithm Algorithm
	// Engine selects the execution backend (default EngineGPU). TA and
	// ES only support the CPU engines.
	Engine Engine
	// Iterations is the per-chain iteration budget (default 1000).
	Iterations int
	// Grid and Block set the GPU geometry (default 4 × 192); for CPU
	// engines Grid·Block is the ensemble size. Negative values are
	// rejected (only zero means "use the default"), and so is a
	// Grid·Block of 2^20 or more: the engines' best reductions index
	// chains in 20 bits.
	Grid, Block int
	// Seed derives all RNG streams. Zero is a sentinel for "unset" and
	// is rewritten to 1, so Seed 0 and Seed 1 produce identical runs —
	// pass distinct nonzero seeds for distinct streams.
	Seed uint64
	// Cooling overrides SA's exponential factor μ (default 0.88).
	Cooling float64
	// Pert overrides the perturbation size (default 4).
	Pert int
	// TempSamples overrides the T₀ estimation sample count (default
	// 5000).
	TempSamples int
	// Persistent selects the persistent-kernel GPU engine for SA: one
	// launch runs the whole annealing loop instead of four kernels per
	// iteration (identical results, lower launch overhead).
	Persistent bool
	// Workers bounds the host goroutines of EngineCPUParallel (default
	// GOMAXPROCS). Serial and GPU engines ignore it.
	Workers int
	// Deadline, when nonzero, is the wall-clock cutoff: the engine stops
	// at its next chain/level/iteration boundary past the deadline and
	// returns the best-so-far with Result.Interrupted set.
	Deadline time.Time
	// Progress, when non-nil, receives best-so-far snapshots during the
	// solve (see core.ProgressFunc for the emission contract).
	Progress ProgressFunc
	// Metrics selects the instrumentation level (default MetricsOff —
	// Result.Metrics stays nil and the engines skip all collection).
	// MetricsCounters adds the per-chain counters and ensemble
	// aggregates; MetricsKernels additionally times every phase/kernel.
	Metrics MetricsLevel
}

func (o Options) normalized() (Options, error) {
	if o.Grid < 0 {
		return o, fmt.Errorf("duedate: %w: negative Grid %d (zero selects the default)", ErrInvalidOptions, o.Grid)
	}
	if o.Block < 0 {
		return o, fmt.Errorf("duedate: %w: negative Block %d (zero selects the default)", ErrInvalidOptions, o.Block)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("duedate: %w: negative Workers %d (zero selects GOMAXPROCS)", ErrInvalidOptions, o.Workers)
	}
	if o.Algorithm == Auto {
		// The meta-driver registers exactly one pairing (AUTO on
		// cpu-parallel) and dispatches to whatever engine its calibration
		// or race selects, so any requested engine is accepted and folded
		// onto the canonical registry key.
		o.Engine = EngineCPUParallel
	}
	if o.Grid == 0 {
		o.Grid = 4
	}
	if o.Block == 0 {
		o.Block = 192
	}
	if err := parallel.CheckChains(o.Grid, o.Block); err != nil {
		return o, fmt.Errorf("duedate: %w: Grid·Block: %v", ErrInvalidOptions, err)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// budget translates the option bounds into the engine-layer budget.
func (o Options) budget() core.Budget {
	return core.Budget{Deadline: o.Deadline}
}

// Driver builds a configured solver for one algorithm×engine pairing.
// The returned solver must treat the instance passed to Solve as
// authoritative (Options carries no instance).
type Driver func(opts Options) core.Solver

// driverKey identifies one algorithm×engine pairing in the registry.
type driverKey struct {
	Algorithm Algorithm
	Engine    Engine
}

// driverEntry is one registered driver with its capability surface.
type driverEntry struct {
	driver   Driver
	kinds    []Kind
	machines bool
}

// registry maps pairings to their drivers. Drivers self-register from
// init (see drivers.go); the facade performs a lookup, never a switch, so
// adding a pairing requires no edits here.
var registry = map[driverKey]driverEntry{}

// allKinds is the full problem-kind capability every evaluator-backed
// driver supports; Pairings hands out copies.
var allKinds = []Kind{CDD, UCDDCP, EARLYWORK}

// RegisterDriver installs the driver for an algorithm×engine pairing
// with the full capability surface: every problem kind and parallel
// machines. That is the honest default for drivers built on
// core.NewEvaluator / the delimiter-genome codec (all built-in drivers
// are); a driver with a narrower surface registers through
// RegisterDriverCaps instead. Registering the same pairing twice panics
// — drivers own their pairings exclusively.
func RegisterDriver(a Algorithm, e Engine, d Driver) {
	RegisterDriverCaps(a, e, d, allKinds, true)
}

// RegisterDriverCaps installs a driver together with its declared
// capability surface: the problem kinds it can evaluate and whether it
// handles parallel-machine (Machines > 1) delimiter genomes. The
// capabilities are enumerated live by Pairings, so clients (and the
// duedated /v1/pairings endpoint) can route instances without
// trial-and-error ErrUnsupportedPairing probes.
func RegisterDriverCaps(a Algorithm, e Engine, d Driver, kinds []Kind, machines bool) {
	key := driverKey{a, e}
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("duedate: driver for %v on %v registered twice", a, e))
	}
	registry[key] = driverEntry{driver: d, kinds: append([]Kind(nil), kinds...), machines: machines}
}

// SolveContext optimizes the instance with the selected algorithm and
// engine and returns the best solution found. The reported cost is always
// the exact objective of the returned sequence. Cancelling ctx (or
// passing Options.Deadline) stops the engine cooperatively at its next
// chain/level/iteration boundary: the result still carries a valid
// best-so-far sequence, with Result.Interrupted set.
func SolveContext(ctx context.Context, in *Instance, opts Options) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	opts, err := opts.normalized()
	if err != nil {
		return Result{}, err
	}
	e, err := lookupDriver(opts)
	if err != nil {
		return Result{}, err
	}
	return e.driver(opts).Solve(ctx, in)
}

// lookupDriver resolves the registered driver for the (normalized)
// options' pairing.
func lookupDriver(opts Options) (driverEntry, error) {
	e, ok := registry[driverKey{opts.Algorithm, opts.Engine}]
	if !ok {
		return driverEntry{}, fmt.Errorf("duedate: %w: %v is not supported on the %v engine (registered engines for %v: %s)",
			ErrUnsupportedPairing, opts.Algorithm, opts.Engine, opts.Algorithm, registeredEngines(opts.Algorithm))
	}
	return e, nil
}

// ValidateOptions checks opts exactly the way SolveContext would —
// option normalization plus the registry pairing lookup — without
// running a solve, and returns the normalized options: zero Grid, Block
// and Seed resolved to their defaults and AUTO's engine folded onto its
// registry key. Solving the normalized options runs the identical
// trajectory, so serving layers key result caches on them. They also
// use it to reject a doomed submission at admission time (an async job
// answers its 400/422 at submit instead of surfacing the same error on a
// later poll); a nil error guarantees SolveContext with these opts will
// not fail on the options themselves.
func ValidateOptions(opts Options) (Options, error) {
	opts, err := opts.normalized()
	if err != nil {
		return opts, err
	}
	_, err = lookupDriver(opts)
	return opts, err
}

// registeredEngines renders the engines registered for an algorithm,
// sorted, for the ErrUnsupportedPairing message.
func registeredEngines(a Algorithm) string {
	var names []string
	for _, p := range Pairings() {
		if p.Algorithm == a {
			names = append(names, p.Engine.String())
		}
	}
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, ", ")
}

// Pairing is one registered algorithm×engine combination together with
// its capability surface, as declared at registration.
type Pairing struct {
	// Algorithm and Engine name the combination.
	Algorithm Algorithm
	Engine    Engine
	// Kinds lists the problem kinds the driver evaluates (every built-in
	// metaheuristic supports all three; the exact EXACT-DP layer declares
	// only the kinds it has a dynamic program for).
	Kinds []Kind
	// Machines reports parallel-machine (Instance.Machines > 1)
	// delimiter-genome support.
	Machines bool
}

// Pairings returns every registered algorithm×engine combination with
// its capabilities, sorted by algorithm then engine — the
// supported-combo enumeration for tests, CLIs and the serving layer,
// replacing hardcoded lists. The Kinds slices are copies; callers may
// keep them.
func Pairings() []Pairing {
	out := make([]Pairing, 0, len(registry))
	for k, e := range registry {
		out = append(out, Pairing{
			Algorithm: k.Algorithm, Engine: k.Engine,
			Kinds: append([]Kind(nil), e.kinds...), Machines: e.machines,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Algorithm != out[j].Algorithm {
			return out[i].Algorithm < out[j].Algorithm
		}
		return out[i].Engine < out[j].Engine
	})
	return out
}

// Solve is SolveContext with a background context, for callers that need
// neither cancellation nor a deadline.
func Solve(in *Instance, opts Options) (Result, error) {
	return SolveContext(context.Background(), in, opts)
}

// OptimizeSequence runs only the second layer: the exact O(n) linear
// algorithm that optimally times (and, for UCDDCP, compresses) the given
// fixed solution. For single-machine instances seq is a job sequence; for
// parallel-machine and early-work instances it is a delimiter genome of
// length GenomeLen (jobs plus machine separators, see Instance.GenomeLen)
// and the schedule carries the per-job machine assignment and per-machine
// starts. It returns the resulting schedule and its exact cost.
func OptimizeSequence(in *Instance, seq []int) (Schedule, int64, error) {
	if err := in.Validate(); err != nil {
		return Schedule{}, 0, err
	}
	if len(seq) != in.GenomeLen() || !problem.IsPermutation(seq) {
		return Schedule{}, 0, fmt.Errorf("duedate: %w: seq must be a permutation of 0..%d", ErrInvalidSequence, in.GenomeLen()-1)
	}
	if in.GenomeCoded() {
		sched := core.GenomeSchedule(in, append([]int(nil), seq...))
		return sched, core.NewEvaluator(in).Cost(seq), nil
	}
	if in.Kind == problem.UCDDCP {
		r := ucddcp.OptimizeSequence(in, seq)
		return Schedule{Seq: append([]int(nil), seq...), Start: r.Start, X: r.X}, r.Cost, nil
	}
	r := cdd.OptimizeSequence(in, seq)
	return Schedule{Seq: append([]int(nil), seq...), Start: r.Start}, r.Cost, nil
}

// Cost evaluates the optimal penalty of a solution without materializing
// the schedule — the fitness function of the paper's metaheuristics.
func Cost(in *Instance, seq []int) (int64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if len(seq) != in.GenomeLen() || !problem.IsPermutation(seq) {
		return 0, fmt.Errorf("duedate: %w: seq must be a permutation of 0..%d", ErrInvalidSequence, in.GenomeLen()-1)
	}
	return core.NewEvaluator(in).Cost(seq), nil
}
