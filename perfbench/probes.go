package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	duedate "repro"
	"repro/internal/auto"
	"repro/internal/cdd"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/obs"
	"repro/internal/perm"
	"repro/internal/problem"
	"repro/internal/sa"
	"repro/internal/server"
	"repro/internal/ucddcp"
	"repro/internal/xrand"
)

// layers computes the per-layer metrics of a traced run. Each metric
// comes from the traced ops of the op class that exercises its layer:
// from the workload's own traced loop when the workload runs that class,
// otherwise from a fixed-count replay of the class on the same seed's
// inputs. Layers below the op classes are timed directly by micro
// probes, the same in every workload.
type layers struct {
	seed      uint64
	refs      *refSet
	tr        *tracer
	m         metrics
	attempted int
	failed    int
	// sample is one anneal op's metrics snapshot, the input of the
	// obs.observe_us probe.
	sample *duedate.Metrics
}

// Fixed counts of the class replays a workload does not run itself.
const (
	probeLibOps   = 8
	probeServeOps = 400
	probeColdOps  = 16
	probeReps     = 5
)

func newLayers(seed uint64, refs *refSet, tr *tracer) *layers {
	return &layers{seed: seed, refs: refs, tr: tr}
}

// overhead compares the throughput of the untraced and traced halves of
// the run.
func (l *layers) overhead(plainN int, plainWall time.Duration, tracedN int, tracedWall time.Duration) {
	plain := float64(plainN) / plainWall.Seconds()
	traced := float64(tracedN) / tracedWall.Seconds()
	l.m.set("trace.overhead_pct", 100*(plain-traced)/plain, "%")
}

// fromLib derives the metrics of a library class from its traced ops.
// The anneal class feeds the parallel ensemble metrics, the GPU class
// the cudasim kernel metrics. solveSpan sets duedate.solve_ms from this
// class's SolveContext spans.
func (l *layers) fromLib(name string, r libRun, solveSpan bool) {
	n := len(r.ops)
	if solveSpan {
		spans := make([]float64, n)
		for i, op := range r.ops {
			spans[i] = ms(op.lat) // an op's latency is its SolveContext span
		}
		l.m.set("duedate.solve_ms", median(spans), "ms")
	}
	// Counters and simulated time repeat exactly per op, so their means
	// are taken over the first cycle (or the whole replay).
	first := min(n, cycleLen(name))
	switch name {
	case wlAnneal:
		var t0, chain, elapsed time.Duration
		var util, evals float64
		for i, op := range r.ops {
			t0 += op.metrics.Phase("t0").Wall
			chain += op.metrics.Phase("chain").Wall
			elapsed += op.lat
			util += op.metrics.Utilization
			if i < first {
				evals += float64(op.metrics.Evaluations)
			}
		}
		l.m.set("parallel.t0_share", float64(t0)/float64(elapsed), "1")
		l.m.set("parallel.chain_share", float64(chain)/float64(elapsed), "1")
		l.m.set("parallel.utilization", util/float64(n), "1")
		l.m.set("parallel.evals_per_op", evals/float64(first), "count")
		l.sample = r.ops[0].metrics
	case wlGPU:
		var sim float64
		phase := map[string]time.Duration{}
		for i, op := range r.ops {
			for _, p := range []string{"fitness", "perturb", "accept", "reduce"} {
				phase[p] += op.metrics.Phase(p).Wall
			}
			if i < first {
				sim += op.sim
			}
		}
		for _, p := range []string{"fitness", "perturb", "accept", "reduce"} {
			l.m.set("cudasim."+p+"_ms", ms(phase[p])/float64(n), "ms")
		}
		l.m.set("cudasim.sim_s_per_op", sim/float64(first), "s")
	}
}

// cycleLen is the op-cycle length of a library workload: one op per
// instance of its set.
func cycleLen(name string) int {
	if name == wlGPU {
		return ucdRecords
	}
	return cddRecords * 4
}

// fromServe derives the server metrics from a traced serve run.
func (l *layers) fromServe(w *serveWorkload, r serveRun, v serveVerdict) {
	var handler, transport, queue []float64
	for _, res := range r.res {
		if res.handler == 0 {
			continue
		}
		handler = append(handler, float64(res.handler)/1e3)
		transport = append(transport, float64(int64(res.lat)-res.handler)/1e3)
		if a, ok := v.cold[res.k]; ok {
			queue = append(queue, float64(res.handler-a.elapsedNs)/1e6)
		}
	}
	l.m.set("server.handler_us_p50", median(handler), "us")
	l.m.set("server.transport_us_p50", median(transport), "us")
	l.m.set("server.queue_overhead_ms", median(queue), "ms")
	l.m.set("server.cache_hit_frac", float64(r.hits)/float64(r.hits+r.misses), "1")
	_, opt := w.qualityAndOptimal(r, v)
	l.m.set("server.optimal_frac", opt, "1")
}

// probe fills in every metric the workload's own loop did not produce:
// replays of the other op classes, then the micro probes.
func (l *layers) probe(workload string) error {
	var errs []error
	for _, class := range []string{wlAnneal, wlGPU} {
		if class == workload {
			continue
		}
		w := newLibWorkload(class, l.seed, l.refs)
		r := w.run(0, probeLibOps, l.tr)
		failed, err := w.verify(r)
		l.attempted += len(r.ops)
		l.failed += failed
		errs = append(errs, err)
		// duedate.solve_ms comes from the workload's own class; the serve
		// workload has none and takes it from the anneal replay.
		l.fromLib(class, r, workload == wlServe && class == wlAnneal)
	}
	if workload != wlServe {
		w, err := newServeWorkload(l.seed, l.refs)
		if err != nil {
			return errors.Join(append(errs, err)...)
		}
		r := w.run(0, probeServeOps, l.tr)
		v := w.verify(r)
		l.attempted += len(r.res)
		l.failed += v.failed
		errs = append(errs, v.err)
		l.fromServe(w, r, v)
		w.close()
	}
	errs = append(errs, l.micro())
	return errors.Join(errs...)
}

// batch times calls of one layer function: probeReps repetitions of
// body, which makes `calls` calls, each repetition one span. It returns
// the median ns per call.
func (l *layers) batch(name string, calls int, body func()) float64 {
	per := make([]float64, probeReps)
	for i := range per {
		start := time.Now()
		body()
		end := time.Now()
		l.tr.record(0, 0, name, start, end, calls)
		per[i] = float64(end.Sub(start)) / float64(calls)
	}
	return median(per)
}

// micro times the layers below the op classes on the seed's instances.
func (l *layers) micro() error {
	set := setOf(l.seed)
	cddIns, ucdIns := genCDD(set), genUCDDCP(set)
	rng := xrand.NewStream(l.seed, streamProbe)

	const randomCalls = 20000
	l.m.set("perm.random_ns", l.batch("perm.Random", randomCalls, func() {
		for i := 0; i < randomCalls; i++ {
			perm.Random(rng, libN)
		}
	}), "ns")
	ops := perm.NewOps(libN)
	seq := identity(libN)
	const shuffleCalls = 200000
	l.m.set("perm.partial_shuffle_ns", l.batch("perm.PartialShuffle", shuffleCalls, func() {
		for i := 0; i < shuffleCalls; i++ {
			ops.PartialShuffle(rng, seq, 4)
		}
	}), "ns")

	// Evaluators: 500 calls per instance across the set.
	const perInst = 500
	seqs := make([][]int, 8)
	for i := range seqs {
		seqs[i] = perm.Random(rng, libN)
	}
	cddEval := make([]*cdd.Evaluator, len(cddIns))
	cddDelta := make([]*cdd.DeltaEvaluator, len(cddIns))
	cur := make([][]int, len(cddIns))
	for i, in := range cddIns {
		cddEval[i] = cdd.NewEvaluator(in)
		cddDelta[i] = cdd.NewDeltaEvaluator(in)
		cur[i] = perm.Random(rng, libN)
		cddDelta[i].Reset(cur[i])
	}
	l.m.set("cdd.full_ns", l.batch("cdd.Evaluator.Cost", len(cddIns)*perInst, func() {
		for _, e := range cddEval {
			for j := 0; j < perInst; j++ {
				e.Cost(seqs[j%len(seqs)])
			}
		}
	}), "ns")
	// A Pert=4 partial shuffle, then Propose and Commit of the move; the
	// shuffle is part of the timed call.
	l.m.set("cdd.delta_ns", l.batch("cdd.DeltaEvaluator.Propose+Commit", len(cddIns)*perInst, func() {
		for i, e := range cddDelta {
			for j := 0; j < perInst; j++ {
				pos := ops.PartialShuffle(rng, cur[i], 4)
				e.Propose(cur[i], pos)
				e.Commit()
			}
		}
	}), "ns")

	// SA chains at the anneal-cdd configuration.
	cfg := sa.DefaultConfig()
	cfg.TempSamples = libOps[wlAnneal].TempSamples
	const steps = 1000
	newChain := make([]float64, len(cddIns))
	var stepTime time.Duration
	var accepts int64
	for i, in := range cddIns {
		start := time.Now()
		ch := sa.NewChain(cfg, core.NewDeltaEvaluator(in), xrand.NewStream(l.seed, streamProbe<<32|uint64(i)))
		mid := time.Now()
		for s := 0; s < steps; s++ {
			ch.Step()
		}
		end := time.Now()
		l.tr.record(0, 0, "sa.NewChain", start, mid, 1)
		l.tr.record(0, 0, "sa.Chain.Step", mid, end, steps)
		newChain[i] = ms(mid.Sub(start))
		stepTime += end.Sub(mid)
		accepts += ch.Counters().Acceptances
	}
	total := float64(len(cddIns) * steps)
	l.m.set("sa.new_chain_ms", median(newChain), "ms")
	l.m.set("sa.step_ns", float64(stepTime)/total, "ns")
	l.m.set("sa.accept_frac", float64(accepts)/total, "1")

	ucdEval := make([]*ucddcp.Evaluator, len(ucdIns))
	batchEval := make([]*core.BatchEvaluator, len(ucdIns))
	for i, in := range ucdIns {
		ucdEval[i] = ucddcp.NewEvaluator(in)
		batchEval[i] = core.NewBatchEvaluator(in)
	}
	const ucdPerInst = 100
	l.m.set("ucddcp.full_ns", l.batch("ucddcp.Evaluator.Cost", len(ucdIns)*ucdPerInst, func() {
		for _, e := range ucdEval {
			for j := 0; j < ucdPerInst; j++ {
				e.Cost(seqs[j%len(seqs)])
			}
		}
	}), "ns")
	const rowsPerBatch, batchesPerInst = 16, 10
	rows := make([]int32, 0, rowsPerBatch*libN)
	for r := 0; r < rowsPerBatch; r++ {
		for _, j := range perm.Random(rng, libN) {
			rows = append(rows, int32(j))
		}
	}
	costs := make([]int64, rowsPerBatch)
	l.m.set("core.batch_ns_per_seq", l.batch("core.BatchEvaluator.CostRows32", len(ucdIns)*batchesPerInst*rowsPerBatch, func() {
		for _, be := range batchEval {
			for j := 0; j < batchesPerInst; j++ {
				be.CostRows32(rows, costs)
			}
		}
	}), "ns")

	// Wire decoding and hashing of the serve mix's requests: every hot
	// request and the first probeColdOps cold ones.
	hot, hotInst := hotBodies(l.seed, cddIns)
	bodies := append([][]byte{}, hot...)
	var reqIns []*duedate.Instance
	for _, i := range hotInst {
		reqIns = append(reqIns, cddIns[i])
	}
	bases := genColdBases(set)
	coldRefs := l.refs.Cold[set-1]
	cycle := serveCycleOps(l.seed)
	var coldIns []*duedate.Instance
	var coldBase []int
	for k := 0; len(coldIns) < probeColdOps; k++ {
		if op := cycle[k]; op.Hot < 0 {
			in := coldInstance(l.seed, k, bases[op.Cold])
			coldIns, coldBase = append(coldIns, in), append(coldBase, op.Cold)
			bodies = append(bodies, coldBody(in))
			reqIns = append(reqIns, in)
		}
	}
	var decodeErr error
	l.m.set("problem.decode_us", l.batch("json.Unmarshal(server.SolveRequest)", len(bodies), func() {
		for _, b := range bodies {
			var req server.SolveRequest
			if err := json.Unmarshal(b, &req); err != nil {
				decodeErr = err
			}
		}
	})/1e3, "us")
	const hashReps = 10
	l.m.set("problem.hash_us", l.batch("problem.Instance.CanonicalHash", len(reqIns)*hashReps, func() {
		for r := 0; r < hashReps; r++ {
			for _, in := range reqIns {
				_ = in.CanonicalHash()
			}
		}
	})/1e3, "us")

	reg := &obs.Registry{}
	const observeCalls = 20000
	l.m.set("obs.observe_us", l.batch("obs.Registry.Observe", observeCalls, func() {
		for i := 0; i < observeCalls; i++ {
			reg.Observe(l.sample)
		}
	})/1e3, "us")

	cal := auto.Default()
	const pickCalls = 100000
	l.m.set("auto.pick_us", l.batch("auto.Calibration.Pick", pickCalls, func() {
		for i := 0; i < pickCalls; i++ {
			cal.Pick(problem.EARLYWORK, coldN, coldMachines)
		}
	})/1e3, "us")

	// AUTO routing and the exact DP on the cold instances.
	ctx := context.Background()
	var errs []error
	routed := 0
	var dpTime time.Duration
	var nodes int64
	for i, in := range coldIns {
		ref := coldRefs[coldBase[i]]
		start := time.Now()
		res, err := duedate.SolveContext(ctx, in, duedate.Options{Algorithm: duedate.Auto, Metrics: duedate.MetricsKernels})
		l.tr.record(0, 0, "duedate.SolveContext(AUTO)", start, time.Now(), 1)
		l.attempted++
		if err == nil {
			err = checkAnswer(in, res.BestSeq, res.BestCost)
		}
		if err == nil && res.Optimal && res.BestCost != ref.Cost {
			err = fmt.Errorf("AUTO optimal answer %d, DP optimum %d", res.BestCost, ref.Cost)
		}
		if err != nil {
			l.failed++
			errs = append(errs, err)
			continue
		}
		if res.Metrics.AutoPick == "EXACT-DP/cpu-serial" {
			routed++
		}
		start = time.Now()
		dp, err := exact.SolveDPContext(ctx, in, exact.DPConfig{})
		end := time.Now()
		l.tr.record(0, 0, "exact.SolveDPContext", start, end, 1)
		l.attempted++
		if err == nil && dp.Cost != ref.Cost {
			err = fmt.Errorf("DP cost %d, reference %d", dp.Cost, ref.Cost)
		}
		if err != nil {
			l.failed++
			errs = append(errs, err)
			continue
		}
		dpTime += end.Sub(start)
		nodes += dp.Nodes
	}
	l.m.set("auto.dp_route_frac", float64(routed)/float64(len(coldIns)), "1")
	l.m.set("exact.dp_ms", ms(dpTime)/float64(len(coldIns)), "ms")
	l.m.set("exact.nodes_per_s", float64(nodes)/dpTime.Seconds(), "1/s")
	return errors.Join(append(errs, decodeErr)...)
}
