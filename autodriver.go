package duedate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/auto"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/obs"
	"repro/internal/problem"
)

// This file wires the self-tuning portfolio meta-driver into the
// registry as the AUTO algorithm on the cpu-parallel engine (the one
// canonical key — Options normalization folds every requested engine
// onto it, because AUTO dispatches to whatever engine it selects). The
// solver has three routes, tried in order:
//
//  1. EXACT-DP, when the instance shape is inside the calibration's DP
//     gates: a success returns a proven optimum with Result.Optimal set;
//     a typed decline (no agreeable order, state budget) falls through.
//  2. A race, when Options.Deadline is set, the calibration bucket
//     offers ≥ 2 candidates and n ≤ raceMaxN: all candidates run
//     concurrently under the shared budget on SplitMix64-split seed
//     streams, losers are culled at a checkpoint (their goroutine
//     workers naturally time-share back to the survivors), and the best
//     best-so-far wins.
//  3. The calibration model's single predicted-best pairing, run with
//     the caller's seed untouched — bit-identical to invoking that
//     static pairing directly, which is what lets the verify auto leg
//     assert AUTO never loses to the worst static pairing.
//
// Racing trades determinism for quality: which candidate wins depends on
// wall-clock scheduling, so racing only engages when a Deadline is set
// (the caller already opted into time-dependent results) and race
// results always report Interrupted=true, keeping them out of the
// server's determinism-assuming caches. Model mode stays bit-exact.

func init() {
	RegisterDriver(Auto, EngineCPUParallel, func(o Options) core.Solver {
		return &autoSolver{opts: o, cal: auto.Default()}
	})
}

// raceFraction is the share of the remaining wall budget the race's
// exploration phase gets before losers are culled at the checkpoint.
const raceFraction = 0.4

// dpAttemptFraction caps the EXACT-DP attempt when a deadline is set, so
// a DP that would blow the budget declines early enough to leave the
// metaheuristic route most of the time.
const dpAttemptFraction = 0.25

// maxRaceCandidates bounds the concurrently raced configurations.
const maxRaceCandidates = 3

// raceMaxN gates racing by instance size: above it a sub-second budget
// buys each lane only a handful of iterations, so splitting the host
// across lanes costs more than the routing information is worth (the
// 30-instance acceptance benchmark loses exactly its n=1000 rows to
// race overhead without this guard). Larger instances trust the
// calibration model and give its pick the whole budget.
const raceMaxN = 400

// autoSolver is the AUTO meta-driver: calibration-model routing with an
// optional deadline-gated race.
type autoSolver struct {
	opts Options
	cal  *auto.Calibration
}

// Name identifies the solver in experiment tables.
func (s *autoSolver) Name() string { return "AUTO" }

// Solve routes the instance per the calibration table and runs the
// chosen configuration(s).
func (s *autoSolver) Solve(ctx context.Context, in *problem.Instance) (core.Result, error) {
	ctx, cancel := s.opts.budget().Apply(ctx)
	defer cancel()
	pickStart := time.Now()
	dec := s.cal.Pick(in.Kind, in.N(), in.MachineCount())
	pickWall := time.Since(pickStart)

	if dec.AttemptDP {
		res, done, err := s.tryDP(ctx, in, pickWall)
		if done {
			return res, err
		}
	}
	if !s.opts.Deadline.IsZero() && len(dec.Candidates) > 1 && in.N() <= raceMaxN {
		return s.race(ctx, in, dec, pickWall)
	}
	return s.dispatch(ctx, in, dec.Choice, pickWall)
}

// tryDP attempts the EXACT-DP route. done=false means the attempt
// declined (typed domain/budget error, or it overran its capped slice of
// a live deadline) and the caller should fall through to the
// metaheuristic routes.
func (s *autoSolver) tryDP(ctx context.Context, in *problem.Instance, pickWall time.Duration) (core.Result, bool, error) {
	dpCtx, dpCancel := ctx, context.CancelFunc(func() {})
	if !s.opts.Deadline.IsZero() {
		if remain := time.Until(s.opts.Deadline); remain > 0 {
			slice := time.Duration(float64(remain) * dpAttemptFraction)
			dpCtx, dpCancel = context.WithDeadline(ctx, time.Now().Add(slice))
		}
	}
	defer dpCancel()

	start := time.Now()
	r, err := exact.SolveDPContext(dpCtx, in, exact.DPConfig{})
	elapsed := time.Since(start)
	if err != nil {
		if errors.Is(err, exact.ErrInapplicable) || errors.Is(err, exact.ErrTooLarge) {
			return core.Result{}, false, nil // typed decline: fall through
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctx.Err() == nil {
				// Only the capped DP slice expired; the overall budget is
				// still live — treat the overrun like a decline.
				return core.Result{}, false, nil
			}
			// The caller's context is gone. Per the cooperative-
			// cancellation contract, return an honest identity-genome
			// best-so-far rather than an error.
			seq := problem.IdentitySequence(in.GenomeLen())
			res := core.Result{
				BestSeq:     seq,
				BestCost:    core.NewEvaluator(in).Cost(seq),
				Evaluations: 1,
				Elapsed:     elapsed,
				Interrupted: true,
			}
			res.Metrics = s.autoMetrics(res, "EXACT-DP/cpu-serial", "dp-certificate", pickWall, elapsed)
			s.emit(res)
			return res, true, nil
		}
		return core.Result{}, true, fmt.Errorf("duedate: AUTO: %w", err)
	}
	res := core.Result{
		BestSeq:     r.Seq,
		BestCost:    r.Cost,
		Iterations:  1,
		Evaluations: r.Nodes,
		Elapsed:     elapsed,
		Optimal:     true,
	}
	res.Metrics = s.autoMetrics(res, "EXACT-DP/cpu-serial", "dp-certificate", pickWall, elapsed)
	s.emit(res)
	return res, true, nil
}

// dispatch runs one static pairing in model mode: the caller's seed and
// trajectory-relevant options pass through untouched (overrides apply
// only to fields the caller left at their defaults), so the result is
// bit-identical to solving with that pairing directly.
func (s *autoSolver) dispatch(ctx context.Context, in *problem.Instance, c auto.Choice, pickWall time.Duration) (core.Result, error) {
	o, entry, err := s.candidateOptions(c, s.opts.Seed)
	if err != nil {
		return core.Result{}, err
	}
	o.Progress = s.opts.Progress
	res, err := entry.driver(o).Solve(ctx, in)
	if err != nil {
		return res, err
	}
	if res.Metrics != nil {
		res.Metrics.AutoPick = c.Pairing()
		res.Metrics.RaceReason = "model-pick"
		res.Metrics.Phases = append(res.Metrics.Phases, core.PhaseMetric{
			Name: obs.PhasePick.String(), Wall: pickKernelWall(o, pickWall), Count: 1,
		})
	}
	return res, nil
}

// candidateOptions builds the dispatch options for one choice:
// calibration overrides fill only fields the caller left unset (the
// normalized Grid=4/Block=192 pair counts as unset; an explicit geometry
// is preserved so verify-style equal-budget comparisons stay exact).
func (s *autoSolver) candidateOptions(c auto.Choice, seed uint64) (Options, driverEntry, error) {
	o := s.opts
	alg, err := ParseAlgorithm(c.Algorithm)
	if err != nil {
		return o, driverEntry{}, fmt.Errorf("duedate: AUTO: calibration choice: %w", err)
	}
	eng, err := ParseEngine(c.Engine)
	if err != nil {
		return o, driverEntry{}, fmt.Errorf("duedate: AUTO: calibration choice: %w", err)
	}
	o.Algorithm, o.Engine = alg, eng
	if o.Grid == 4 && o.Block == 192 {
		if c.Grid > 0 {
			o.Grid = c.Grid
		}
		if c.Block > 0 {
			o.Block = c.Block
		}
	}
	if o.Iterations == 0 && c.Iterations > 0 {
		o.Iterations = c.Iterations
	}
	if o.Workers == 0 && c.Workers > 0 {
		o.Workers = c.Workers
	}
	o.Seed = seed
	o.Progress = nil
	entry, err := lookupDriver(o)
	if err != nil {
		return o, driverEntry{}, err
	}
	return o, entry, nil
}

// raceCandidate is one lane of a race.
type raceCandidate struct {
	choice  auto.Choice
	cancel  context.CancelFunc
	best    atomic.Int64 // best cost observed via Progress (MaxInt64 until first snapshot)
	res     core.Result
	err     error
	elapsed time.Duration
	culled  atomic.Bool
}

// race runs the candidate set concurrently under the shared deadline,
// culls everything but the checkpoint leader, and reduces to the best
// best-so-far. Candidate i's RNG stream is the i-th SplitMix64 split of
// the caller's seed, so each lane's trajectory is reproducible even
// though the wall-clock outcome of the race is not; accordingly the
// result always reports Interrupted=true.
func (s *autoSolver) race(ctx context.Context, in *problem.Instance, dec auto.Decision, pickWall time.Duration) (core.Result, error) {
	cands := dec.Candidates
	if len(cands) > maxRaceCandidates {
		cands = cands[:maxRaceCandidates]
	}
	seeds := auto.RaceSeeds(s.opts.Seed, len(cands))
	start := time.Now()

	lanes := make([]*raceCandidate, len(cands))
	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex // serializes forwarding to the caller's Progress
		globalBest = int64(math.MaxInt64)
	)
	for i := range cands {
		lane := &raceCandidate{choice: cands[i]}
		lane.best.Store(math.MaxInt64)
		lanes[i] = lane

		o, entry, err := s.candidateOptions(cands[i], seeds[i])
		if err != nil {
			lane.err = err
			continue
		}
		laneCtx, laneCancel := context.WithCancel(ctx)
		lane.cancel = laneCancel
		o.Progress = func(snap core.Snapshot) {
			if snap.BestCost < lane.best.Load() {
				lane.best.Store(snap.BestCost)
			}
			if s.opts.Progress == nil {
				return
			}
			progressMu.Lock()
			if snap.BestCost < globalBest {
				globalBest = snap.BestCost
				s.opts.Progress(snap)
			}
			progressMu.Unlock()
		}
		solver := entry.driver(o)
		wg.Add(1)
		go func(lane *raceCandidate) {
			defer wg.Done()
			laneStart := time.Now()
			lane.res, lane.err = solver.Solve(laneCtx, in)
			lane.elapsed = time.Since(laneStart)
		}(lane)
	}

	// Checkpoint monitor: once raceFraction of the budget is spent, keep
	// the current leader and cull the rest. If no lane has reported a
	// snapshot yet there is nothing to rank, and every lane runs on.
	culled := false
	var checkpointLeader int32 = -1
	if remain := time.Until(s.opts.Deadline); remain > 0 {
		timer := time.AfterFunc(time.Duration(float64(remain)*raceFraction), func() {
			leader, leaderCost := -1, int64(math.MaxInt64)
			for i, lane := range lanes {
				if b := lane.best.Load(); b < leaderCost {
					leader, leaderCost = i, b
				}
			}
			if leader < 0 {
				return
			}
			atomic.StoreInt32(&checkpointLeader, int32(leader))
			for i, lane := range lanes {
				if i != leader && lane.cancel != nil {
					lane.culled.Store(true)
					lane.cancel()
				}
			}
		})
		defer timer.Stop()
	}

	wg.Wait()
	for _, lane := range lanes {
		if lane.cancel != nil {
			lane.cancel()
		}
		if lane.culled.Load() {
			culled = true
		}
	}

	// Reduce: the lowest honest best-so-far across every lane that
	// produced a result (culled lanes return a valid Interrupted result,
	// so their exploration still counts).
	winner := -1
	var firstErr error
	var totalEvals int64
	for i, lane := range lanes {
		if lane.err != nil {
			if firstErr == nil {
				firstErr = lane.err
			}
			continue
		}
		totalEvals += lane.res.Evaluations
		if winner < 0 || lane.res.BestCost < lanes[winner].res.BestCost {
			winner = i
		}
	}
	if winner < 0 {
		return core.Result{}, fmt.Errorf("duedate: AUTO: every race candidate failed: %w", firstErr)
	}

	win := lanes[winner]
	res := win.res
	res.Evaluations = totalEvals
	res.Elapsed = time.Since(start)
	res.Interrupted = true // races are wall-clock-dependent by construction

	reason := "best-at-deadline"
	if culled && int(atomic.LoadInt32(&checkpointLeader)) == winner {
		reason = "leader-at-checkpoint"
	}
	if m := s.autoMetrics(res, win.choice.Pairing(), reason, pickWall, res.Elapsed); m != nil {
		if res.Metrics != nil {
			// Keep the winning lane's counters; overlay the race accounting.
			m.FullEvaluations = res.Metrics.FullEvaluations
			m.Acceptances = res.Metrics.Acceptances
			m.Improvements = res.Metrics.Improvements
			m.Chains = res.Metrics.Chains
			m.Workers = res.Metrics.Workers
			m.InterruptedAt = res.Metrics.InterruptedAt
		}
		for _, lane := range lanes {
			if lane.err != nil {
				continue
			}
			m.RaceCandidates = append(m.RaceCandidates, lane.choice.Pairing())
			m.Phases = append(m.Phases, core.PhaseMetric{
				Name: "race:" + lane.choice.Pairing(), Wall: lane.elapsed, Count: 1,
			})
		}
		res.Metrics = m
	}
	s.emitFinal(res)
	// Lane errors are not fatal once any lane produced a result — a
	// candidate's typed decline must not fail the whole solve.
	return res, nil
}

// autoMetrics assembles the AUTO-level metrics envelope (nil when
// collection is off): pick identity, race attribution, and the pick
// phase timing.
func (s *autoSolver) autoMetrics(res core.Result, pick, reason string, pickWall, elapsed time.Duration) *core.Metrics {
	if s.opts.Metrics <= MetricsOff {
		return nil
	}
	m := &core.Metrics{
		Level:           s.opts.Metrics,
		Evaluations:     res.Evaluations,
		FullEvaluations: res.Evaluations,
		Chains:          1,
		Workers:         1,
		AutoPick:        pick,
		RaceWinner:      "",
		RaceReason:      reason,
	}
	if reason != "model-pick" && reason != "dp-certificate" {
		m.RaceWinner = pick
	}
	wall := time.Duration(0)
	if s.opts.Metrics >= MetricsKernels {
		wall = pickWall
	}
	m.Phases = append(m.Phases, core.PhaseMetric{Name: obs.PhasePick.String(), Wall: wall, Count: 1})
	if reason == "dp-certificate" {
		dpWall := time.Duration(0)
		if s.opts.Metrics >= MetricsKernels {
			dpWall = elapsed
		}
		m.Phases = append(m.Phases, core.PhaseMetric{Name: obs.PhaseDP.String(), Wall: dpWall, Count: 1})
	}
	return m
}

// pickKernelWall reports the pick wall time only at the kernels level,
// mirroring the collector's "counters stay cheap" contract.
func pickKernelWall(o Options, pickWall time.Duration) time.Duration {
	if o.Metrics >= MetricsKernels {
		return pickWall
	}
	return 0
}

// emit sends the single final snapshot for one-shot routes (DP).
func (s *autoSolver) emit(res core.Result) {
	if s.opts.Progress == nil {
		return
	}
	s.opts.Progress(core.Snapshot{
		BestSeq:     append([]int(nil), res.BestSeq...),
		BestCost:    res.BestCost,
		Evaluations: res.Evaluations,
		Elapsed:     res.Elapsed,
	})
}

// emitFinal sends the race's closing snapshot (the per-lane forwarding
// has stopped by the time it runs, so the serialization contract holds).
func (s *autoSolver) emitFinal(res core.Result) { s.emit(res) }
