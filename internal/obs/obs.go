// Package obs is the engine observability layer: a lock-free metrics
// collector threaded through every solver driver (the shared CPU
// ensemble runtime and the three GPU pipelines) plus an expvar-compatible
// registry aggregating snapshots across runs.
//
// The design contract is "off means free": a nil *Collector is the
// disabled state, every method is nil-receiver-safe, and drivers guard
// anything costlier than a counter bump (time.Now, device event reads)
// behind Collector.Kernels(). Enabled collection is wait-free — atomic
// adds for counters and wall time, a CAS loop over float64 bits for
// simulated seconds — so instrumented chains and simulated CUDA threads
// never serialize on the collector.
package obs

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Phase identifies one instrumented stage of a solver. The GPU phases
// mirror the paper's kernel pipeline (perturb/fitness/accept/reduce for
// SA, update/fitness/pbest/reduce/broadcast for DPSO); the CPU ensembles
// report setup (which includes the T₀ estimation) and chain execution.
type Phase int

const (
	// PhaseT0 is initial-temperature estimation (plus, on the CPU
	// engines, chain construction and the initial evaluation).
	PhaseT0 Phase = iota
	// PhaseChain is the execution of a CPU chain's iteration loop.
	PhaseChain
	// PhaseInit is the GPU initialization kernel (seed bests/pbests).
	PhaseInit
	// PhasePerturb is the SA perturbation kernel.
	PhasePerturb
	// PhaseFitness is the fitness kernel.
	PhaseFitness
	// PhaseAccept is the SA metropolis-acceptance kernel.
	PhaseAccept
	// PhaseReduce is the atomic-min reduction kernel (or the host-side
	// reduction of the CPU drivers).
	PhaseReduce
	// PhaseUpdate is the DPSO position-update kernel.
	PhaseUpdate
	// PhasePBest is the DPSO personal-best refresh kernel.
	PhasePBest
	// PhaseBroadcast is the DPSO swarm-best broadcast kernel (and the
	// synchronous SA level broadcast).
	PhaseBroadcast
	// PhasePersistent is the single launch of the persistent SA kernel.
	PhasePersistent
	// PhaseDP is the pseudo-polynomial dynamic program of the EXACT-DP
	// driver (state expansion plus sequence reconstruction).
	PhaseDP
	// PhasePick is the AUTO meta-driver's calibration lookup (and, when
	// the instance is DP-eligible, the EXACT-DP attempt it gates).
	PhasePick
	// PhaseRace is one candidate leg of an AUTO race; the meta-driver
	// additionally appends one free-form "race:<pairing>" PhaseMetric per
	// candidate to the final Metrics.
	PhaseRace
	numPhases
)

// String implements fmt.Stringer; the names double as the PhaseMetric
// names in core.Metrics.
func (p Phase) String() string {
	switch p {
	case PhaseT0:
		return "t0"
	case PhaseChain:
		return "chain"
	case PhaseInit:
		return "init"
	case PhasePerturb:
		return "perturb"
	case PhaseFitness:
		return "fitness"
	case PhaseAccept:
		return "accept"
	case PhaseReduce:
		return "reduce"
	case PhaseUpdate:
		return "update"
	case PhasePBest:
		return "pbest"
	case PhaseBroadcast:
		return "broadcast"
	case PhasePersistent:
		return "persistent"
	case PhaseDP:
		return "dp"
	case PhasePick:
		return "pick"
	case PhaseRace:
		return "race"
	default:
		return "phase(?)"
	}
}

// ChainCounters are the cheap per-chain tallies a metaheuristic chain
// maintains while it runs. Chains expose them through CounterSource; the
// ensemble runtime folds them into the run's Collector.
type ChainCounters struct {
	// FullEvaluations counts full O(n) passes (including initialization
	// and T₀ samples).
	FullEvaluations int64
	// Acceptances counts accepted moves, Improvements the subset that
	// improved the chain's best-so-far.
	Acceptances  int64
	Improvements int64
}

// CounterSource is implemented by chains that track ChainCounters
// (sa.Chain does); the ensemble runtime type-asserts against it so
// counter-less chains (TA, ES) cost nothing.
type CounterSource interface {
	Counters() ChainCounters
}

// phaseCell is one phase's accumulator. All fields are touched with
// atomics only.
type phaseCell struct {
	wallNS  atomic.Int64
	simBits atomic.Uint64 // float64 bits of accumulated simulated seconds
	count   atomic.Int64
}

// Collector gathers one solver run's metrics. Create it with
// NewCollector; a nil Collector is the metrics-off state and every
// method on it is a no-op, so drivers thread it unconditionally.
type Collector struct {
	level  core.MetricsLevel
	phases [numPhases]phaseCell

	fullEvals atomic.Int64
	accepts   atomic.Int64
	improves  atomic.Int64
	busyNS    atomic.Int64

	interruptedAt atomic.Pointer[string]
}

// NewCollector returns a collector for the level, or nil when the level
// is MetricsOff (levels below counters collect nothing).
func NewCollector(level core.MetricsLevel) *Collector {
	if level <= core.MetricsOff {
		return nil
	}
	return &Collector{level: level}
}

// Enabled reports whether any collection is active.
func (c *Collector) Enabled() bool { return c != nil }

// Kernels reports whether per-phase timing is active; drivers guard
// time.Now/device-event reads behind it so the counters level stays
// cheap.
func (c *Collector) Kernels() bool { return c != nil && c.level >= core.MetricsKernels }

// Phase folds one execution of a phase into its accumulator: host wall
// time, simulated device seconds, one launch.
func (c *Collector) Phase(p Phase, wall time.Duration, sim float64) {
	if c == nil {
		return
	}
	cell := &c.phases[p]
	cell.count.Add(1)
	if wall > 0 {
		cell.wallNS.Add(int64(wall))
	}
	if sim > 0 {
		for {
			old := cell.simBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + sim)
			if cell.simBits.CompareAndSwap(old, next) {
				break
			}
		}
	}
}

// CountPhase records one execution of a phase without timing (used at
// the counters level where wall/sim are not measured).
func (c *Collector) CountPhase(p Phase) {
	if c == nil {
		return
	}
	c.phases[p].count.Add(1)
}

// AddChain folds one chain's counters into the run totals.
func (c *Collector) AddChain(cc ChainCounters) {
	if c == nil {
		return
	}
	c.fullEvals.Add(cc.FullEvaluations)
	c.accepts.Add(cc.Acceptances)
	c.improves.Add(cc.Improvements)
}

// AddFullEvals / AddAccepts / AddImprovements are the GPU kernels'
// direct counter hooks (the simulated threads have no Chain object to
// fold). AddFullEvals counts full O(n) fitness passes.
func (c *Collector) AddFullEvals(n int64) {
	if c != nil {
		c.fullEvals.Add(n)
	}
}

// AddAccepts counts accepted moves.
func (c *Collector) AddAccepts(n int64) {
	if c != nil {
		c.accepts.Add(n)
	}
}

// AddImprovements counts per-chain best improvements.
func (c *Collector) AddImprovements(n int64) {
	if c != nil {
		c.improves.Add(n)
	}
}

// AddBusy accumulates chain busy time for the worker-utilization
// aggregate.
func (c *Collector) AddBusy(d time.Duration) {
	if c != nil && d > 0 {
		c.busyNS.Add(int64(d))
	}
}

// SetInterruptedAt records the boundary the run stopped at ("chain",
// "level", "generation", "iteration", "kernel-iteration"). First write
// wins.
func (c *Collector) SetInterruptedAt(boundary string) {
	if c == nil {
		return
	}
	c.interruptedAt.CompareAndSwap(nil, &boundary)
}

// Snapshot assembles the collected data into a core.Metrics. evaluations
// is the run's authoritative total (the engines' existing deterministic
// count); chains/workers/elapsed describe the run geometry. A nil
// collector returns nil, which keeps Result.Metrics nil for
// uninstrumented runs.
func (c *Collector) Snapshot(evaluations int64, chains, workers int, elapsed time.Duration) *core.Metrics {
	if c == nil {
		return nil
	}
	m := &core.Metrics{
		Level:           c.level,
		Evaluations:     evaluations,
		FullEvaluations: c.fullEvals.Load(),
		Acceptances:     c.accepts.Load(),
		Improvements:    c.improves.Load(),
		Chains:          chains,
		Workers:         workers,
		WorkerBusy:      time.Duration(c.busyNS.Load()),
	}
	if workers > 0 && elapsed > 0 {
		m.Utilization = float64(m.WorkerBusy) / (float64(elapsed) * float64(workers))
	}
	if p := c.interruptedAt.Load(); p != nil {
		m.InterruptedAt = *p
	}
	for i := Phase(0); i < numPhases; i++ {
		cell := &c.phases[i]
		count := cell.count.Load()
		if count == 0 {
			continue
		}
		m.Phases = append(m.Phases, core.PhaseMetric{
			Name:  i.String(),
			Wall:  time.Duration(cell.wallNS.Load()),
			Sim:   math.Float64frombits(cell.simBits.Load()),
			Count: count,
		})
	}
	return m
}
