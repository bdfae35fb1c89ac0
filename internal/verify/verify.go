// Package verify is the cross-engine differential-verification subsystem:
// seedable instance-generator families, an oracle chain over the exact
// solvers and every registered algorithm×engine driver, metamorphic
// properties, and the sequence-evaluator agreement checks that tie the
// O(n) linear algorithms, their incremental delta forms, the materialized
// schedules and the LP reference together.
//
// The two-layer design of the paper only works if every engine computes
// identical costs for a fixed sequence via the exact linear algorithms;
// this package exists to falsify that claim automatically. Run generates
// instances family by family, cross-checks every evaluator on sampled
// sequences, anchors small instances to the exact oracles, applies the
// metamorphic properties, and races every registered driver against the
// proven optimum — collecting machine-readable discrepancies instead of
// stopping at the first failure.
package verify

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// Config parameterizes a verification run. The zero value is usable:
// every family, modest trial counts, all registered drivers.
type Config struct {
	// Trials is the number of instances generated per family (default 25).
	Trials int
	// Seed derives every RNG stream of the run; a fixed seed replays the
	// exact same instances, sequences and driver solves (default 1).
	Seed uint64
	// MaxN bounds the job count of the size-randomized families
	// (default 8, keeping the brute-force oracle applicable).
	MaxN int
	// SeqSamples is the number of random sequences cross-checked per
	// instance in the evaluator-agreement layer (default 4).
	SeqSamples int
	// BruteN bounds the instances sent to the brute-force oracle
	// (default 8; hard-capped by exact.MaxBruteN).
	BruteN int
	// SubsetN bounds the instances sent to the subset oracle (default 12).
	SubsetN int
	// Families restricts the run to the named families (default: all).
	Families []string
	// DeltaSteps is the length of the propose/commit random walk per
	// instance (default 12).
	DeltaSteps int
	// Machines, when positive, overrides the machine count of every
	// generated instance — the CI matrix runs the full family set at
	// machines ∈ {1, 2, 3}. Safe for all families: the UCDDCP
	// unrestricted band is on the total ΣP, so forcing a split never
	// invalidates an instance. Zero keeps each family's own choice.
	Machines int
	// DPTrials is the number of exact-dp leg trials (large agreeable CDD
	// instances at n ≥ 200, EARLYWORK knapsacks, and brute-checked
	// restrictive straddler cases — see dpleg.go). Default 3; negative
	// disables the leg.
	DPTrials int
	// DPMaxN is the upper bound on the DP leg's CDD instance size
	// (default 240; the lower bound is fixed at 200, the paper-protocol
	// regime the enumeration oracles cannot reach).
	DPMaxN int
	// AutoTrials is the number of AUTO-leg trials: the portfolio
	// meta-driver raced against every static pairing under an equal
	// budget and shared seed, plus the DP free-certificate contract (see
	// autoleg.go). Default 3; negative disables the leg. The leg only
	// runs when drivers are under test.
	AutoTrials int
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxN <= 0 {
		c.MaxN = 8
	}
	if c.SeqSamples <= 0 {
		c.SeqSamples = 4
	}
	if c.BruteN <= 0 {
		c.BruteN = 8
	}
	if c.SubsetN <= 0 {
		c.SubsetN = 12
	}
	if c.DeltaSteps <= 0 {
		c.DeltaSteps = 12
	}
	if c.DPTrials == 0 {
		c.DPTrials = 3
	}
	if c.DPMaxN < 200 {
		c.DPMaxN = 240
	}
	if c.AutoTrials == 0 {
		c.AutoTrials = 3
	}
	return c
}

// Discrepancy is one falsification: a check that failed on a concrete
// instance, with enough detail to reproduce it.
type Discrepancy struct {
	// Check names the failing check (e.g. "sequence-agreement",
	// "oracle-chain", "driver-beats-exact").
	Check string `json:"check"`
	// Family is the generator family of the instance ("" for injected
	// instances).
	Family string `json:"family,omitempty"`
	// Instance is the generated instance's name (embeds trial and n).
	Instance string `json:"instance"`
	// Driver is the evaluator or engine at fault, when attributable.
	Driver string `json:"driver,omitempty"`
	// Detail is the human-readable evidence.
	Detail string `json:"detail"`
}

// DriverStats aggregates one driver's behavior over a run.
type DriverStats struct {
	// Runs counts completed solves.
	Runs int `json:"runs"`
	// OptimumHits counts solves that reached a proven exact optimum.
	OptimumHits int `json:"optimumHits"`
	// OptimumKnown counts solves where an exact optimum was available.
	OptimumKnown int `json:"optimumKnown"`
	// WorstGapPct is the largest percent deviation above a proven
	// optimum observed (0 when the driver always reached it).
	WorstGapPct float64 `json:"worstGapPct"`
}

// Report is the machine-readable outcome of a verification run.
type Report struct {
	// Config echoes the effective configuration.
	Config Config `json:"config"`
	// Drivers lists the engines under test, in run order.
	Drivers []string `json:"drivers"`
	// Instances counts generated instances across all families.
	Instances int `json:"instances"`
	// DPInstances counts the instances of the exact-dp leg (tracked
	// separately so the per-family accounting stays comparable across
	// configurations).
	DPInstances int `json:"dpInstances"`
	// AutoInstances counts the instances of the AUTO portfolio leg.
	AutoInstances int `json:"autoInstances"`
	// Checks counts executed checks by name (a "check" is one comparison
	// or invariant evaluation, so the totals show real coverage).
	Checks map[string]int64 `json:"checks"`
	// DriverStats aggregates per-driver quality, keyed by driver name.
	DriverStats map[string]*DriverStats `json:"driverStats"`
	// Discrepancies is every falsification found; empty means the run is
	// clean.
	Discrepancies []Discrepancy `json:"discrepancies"`
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration `json:"elapsedNs"`
}

// Ok reports whether the run found no discrepancies.
func (r *Report) Ok() bool { return len(r.Discrepancies) == 0 }

// Summary renders a short human-readable digest (one line per family-
// independent aggregate; the JSON form carries the full detail).
func (r *Report) Summary() string {
	names := make([]string, 0, len(r.Checks))
	var total int64
	for name, c := range r.Checks {
		names = append(names, name)
		total += c
	}
	sort.Strings(names)
	s := fmt.Sprintf("verify: %d instances, %d checks, %d discrepancies, %d drivers, %v\n",
		r.Instances, total, len(r.Discrepancies), len(r.Drivers), r.Elapsed.Round(time.Millisecond))
	for _, name := range names {
		s += fmt.Sprintf("  %-24s %8d\n", name, r.Checks[name])
	}
	return s
}

// Driver is one engine under differential test: a name and a solve
// function. RegisteredDrivers adapts every pairing of the facade registry;
// tests inject deliberately broken drivers to prove the chain catches
// them.
type Driver struct {
	Name  string
	Solve func(ctx context.Context, in *problem.Instance, seed uint64) (core.Result, error)
}

// Run executes the full verification: for each family and trial it
// generates an instance, runs the evaluator-agreement layer on sampled
// sequences, the propose/commit delta walk, the metamorphic properties,
// the exact-oracle chain, and — where an exact optimum is proven — every
// driver against it. A cancelled ctx stops between instances and returns
// the partial report with an error.
func Run(ctx context.Context, cfg Config, drivers []Driver) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	rep := &Report{
		Config:      cfg,
		Checks:      map[string]int64{},
		DriverStats: map[string]*DriverStats{},
	}
	for _, d := range drivers {
		rep.Drivers = append(rep.Drivers, d.Name)
		rep.DriverStats[d.Name] = &DriverStats{}
	}

	fams := Families()
	if len(cfg.Families) > 0 {
		fams = fams[:0:0]
		for _, name := range cfg.Families {
			f, err := FamilyByName(name)
			if err != nil {
				return rep, err
			}
			fams = append(fams, f)
		}
	}

	for fi, fam := range fams {
		for trial := 0; trial < cfg.Trials; trial++ {
			if err := ctx.Err(); err != nil {
				rep.Elapsed = time.Since(start)
				return rep, fmt.Errorf("verify: cancelled at %s trial %d: %w", fam.Name, trial, err)
			}
			rng := xrand.NewStream(cfg.Seed, uint64(fi)<<32|uint64(trial))
			in := fam.Gen(rng, trial, cfg.MaxN)
			if cfg.Machines > 0 && in.MachineCount() != cfg.Machines {
				in.Machines = cfg.Machines
				in.Name = fmt.Sprintf("%s/m%d", in.Name, cfg.Machines)
			}
			rep.Instances++
			if err := in.Validate(); err != nil {
				rep.add(Discrepancy{
					Check: "generator", Family: fam.Name, Instance: in.Name,
					Detail: fmt.Sprintf("generated instance invalid: %v", err),
				})
				continue
			}
			rep.checkInstance(ctx, cfg, fam.Name, in, rng, drivers)
		}
	}

	// The exact-dp leg: differential verification at sizes the
	// enumeration oracles cannot reach (n into the hundreds).
	if cfg.DPTrials > 0 {
		if err := rep.runDPLeg(ctx, cfg, drivers); err != nil {
			rep.Elapsed = time.Since(start)
			return rep, err
		}
	}

	// The AUTO leg: the portfolio meta-driver against every static
	// pairing under an equal budget and shared seed (skipped together
	// with the drivers — it is a driver-level comparison).
	if cfg.AutoTrials > 0 && len(drivers) > 0 {
		if err := rep.runAutoLeg(ctx, cfg); err != nil {
			rep.Elapsed = time.Since(start)
			return rep, err
		}
	}
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// checkInstance runs every layer on one instance. Solutions are genomes
// of length GenomeLen — the plain job sequence on single-machine
// instances, the delimiter encoding on parallel-machine ones — so every
// layer below covers both regimes through the same code path.
func (r *Report) checkInstance(ctx context.Context, cfg Config, family string, in *problem.Instance, rng *xrand.XORWOW, drivers []Driver) {
	n := in.GenomeLen()

	// Layer 1: sequence-cost agreement across every evaluator.
	seq := problem.IdentitySequence(n)
	for s := 0; s < cfg.SeqSamples; s++ {
		if s > 0 {
			xrand.Shuffle(rng, seq)
		}
		r.Checks["sequence-agreement"]++
		for _, d := range CheckSequenceAgreement(in, seq) {
			d.Family = family
			r.add(d)
		}
	}

	// Layer 2: incremental evaluation under the propose/commit protocol.
	r.Checks["delta-walk"]++
	for _, d := range deltaWalkCheck(in, rng, cfg.DeltaSteps) {
		d.Family = family
		r.add(d)
	}

	// Layer 3: metamorphic properties.
	r.Checks["metamorphic"]++
	for _, d := range CheckMetamorphic(in, rng, 2) {
		d.Family = family
		r.add(d)
	}

	// Layer 4: exact oracles (and their mutual agreement).
	bounds, ds := CheckExactOracles(in, cfg.BruteN, cfg.SubsetN)
	r.Checks["oracle-chain"]++
	for _, d := range ds {
		d.Family = family
		r.add(d)
	}

	// Layer 5: every registered driver against the exact bound and its
	// own reported cost. Runs even without a proven optimum — the honesty
	// and feasibility checks need no ground truth.
	for _, drv := range drivers {
		r.Checks["driver"]++
		st := r.DriverStats[drv.Name]
		res, err := drv.Solve(ctx, in, cfg.Seed+uint64(st.Runs)+1)
		if err != nil {
			// A capability-scoped exact driver may decline an instance with
			// a typed sentinel (outside its provable domain, or over its
			// state budget) — that is contract behavior, not a failure. Any
			// other error is a real discrepancy.
			if errors.Is(err, exact.ErrInapplicable) || errors.Is(err, exact.ErrTooLarge) {
				r.Checks["driver-skip"]++
				continue
			}
			r.add(Discrepancy{
				Check: "driver-error", Family: family, Instance: in.Name, Driver: drv.Name,
				Detail: fmt.Sprintf("solve failed: %v", err),
			})
			continue
		}
		st.Runs++
		if len(res.BestSeq) != n || !problem.IsPermutation(res.BestSeq) {
			r.add(Discrepancy{
				Check: "driver-feasibility", Family: family, Instance: in.Name, Driver: drv.Name,
				Detail: fmt.Sprintf("best genome %v is not a permutation of 0..%d", res.BestSeq, n-1),
			})
			continue
		}
		honest := core.NewEvaluator(in).Cost(res.BestSeq)
		if honest != res.BestCost {
			r.add(Discrepancy{
				Check: "driver-honest-cost", Family: family, Instance: in.Name, Driver: drv.Name,
				Detail: fmt.Sprintf("reported cost %d, sequence re-evaluates to %d", res.BestCost, honest),
			})
		}
		if bounds.Known {
			st.OptimumKnown++
			if res.BestCost < bounds.Cost {
				r.add(Discrepancy{
					Check: "driver-beats-exact", Family: family, Instance: in.Name, Driver: drv.Name,
					Detail: fmt.Sprintf("cost %d beats the proven optimum %d — solver or oracle bug", res.BestCost, bounds.Cost),
				})
			} else if res.BestCost == bounds.Cost {
				st.OptimumHits++
			} else if gap := core.PercentDeviation(res.BestCost, bounds.Cost); gap > st.WorstGapPct {
				st.WorstGapPct = gap
			}
		}
	}
}

func (r *Report) add(d Discrepancy) {
	r.Discrepancies = append(r.Discrepancies, d)
}
