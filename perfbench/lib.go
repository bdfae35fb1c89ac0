package main

import (
	"context"
	"fmt"
	"time"

	duedate "repro"
	"repro/internal/problem"
)

// libWorkload is a closed loop of one caller solving through
// duedate.SolveContext, one op class per workload.
type libWorkload struct {
	name  string
	insts []*duedate.Instance
	refs  []refEntry
	cycle libCycle
	opts  duedate.Options // Seed is set per op; never a Deadline
}

// libOps is the fixed-work SolveContext configuration of each library
// workload.
var libOps = map[string]duedate.Options{
	// The paper's CPU baseline on the host path: 1×32 chains of SA.
	wlAnneal: {Algorithm: duedate.SA, Engine: duedate.EngineCPUSerial, Grid: 1, Block: 32, Iterations: 1000, TempSamples: 500},
	// The simulated-GPU four-kernel pipeline: 2 blocks of 32 threads.
	wlGPU: {Algorithm: duedate.SA, Engine: duedate.EngineGPU, Grid: 2, Block: 32, Iterations: 100},
}

// libLimit is the latency limit of a library op, about 2.5× its median
// on a 2-core x86-64 VM.
const libLimit = 100 * time.Millisecond

func newLibWorkload(name string, seed uint64, rs *refSet) *libWorkload {
	set := setOf(seed)
	w := &libWorkload{name: name, opts: libOps[name]}
	switch name {
	case wlAnneal:
		w.insts, w.refs = genCDD(set), rs.CDD[set-1]
	case wlGPU:
		w.insts, w.refs = genUCDDCP(set), rs.UCDDCP[set-1]
	}
	w.cycle = newLibCycle(seed, len(w.insts))
	return w
}

// libOp is one completed op.
type libOp struct {
	lat     time.Duration
	err     error
	cost    int64
	seq     []int
	metrics *duedate.Metrics
	sim     float64
}

// libRun is the record of one timed loop.
type libRun struct {
	ops      []libOp
	wall     time.Duration
	opsPerS  float64       // median over libWindow windows
	cpuPerOp time.Duration // median over libWindow windows
}

// libWindow is the sampling period of a library loop: about 90 ops.
const libWindow = 3 * time.Second

// minOps keeps p95 reportable (minTail samples beyond it) and covers
// at least one op cycle.
func (w *libWorkload) minOps() int {
	return max(minSamples(0.95), len(w.cycle.Order))
}

// op runs op k.
func (w *libWorkload) op(ctx context.Context, k int, tr *tracer) libOp {
	i, seed := w.cycle.op(k)
	o := w.opts
	o.Seed = seed
	if tr != nil {
		o.Metrics = duedate.MetricsKernels
	}
	start := time.Now()
	res, err := duedate.SolveContext(ctx, w.insts[i], o)
	end := time.Now()
	op := libOp{lat: end.Sub(start), err: err, cost: res.BestCost, seq: res.BestSeq, metrics: res.Metrics, sim: res.SimSeconds}
	if tr != nil {
		id := tr.id()
		tr.add(id, 0, int64(k), "duedate.SolveContext", start, end, 0)
		// Result.Metrics reports per-phase totals, not start times: lay
		// the phases end to end inside the solve span.
		at := start
		for _, p := range res.Metrics.Phases {
			tr.record(id, int64(k), "phase."+p.Name, at, at.Add(p.Wall), int(p.Count))
			at = at.Add(p.Wall)
		}
	}
	return op
}

// run executes ops until the duration has passed and at least minOps
// completed, or — when count > 0 — exactly count ops.
func (w *libWorkload) run(dur time.Duration, count int, tr *tracer) libRun {
	ctx := context.Background()
	var r libRun
	s := startSampler(libWindow)
	start := time.Now()
	for k := 0; ; k++ {
		if count > 0 && k >= count || count == 0 && k >= w.minOps() && time.Since(start) >= dur {
			break
		}
		r.ops = append(r.ops, w.op(ctx, k, tr))
		s.done.Add(1)
	}
	r.wall = time.Since(start)
	r.opsPerS, r.cpuPerOp = s.finish()
	return r
}

// verify checks every answer: a valid genome whose cost is the exact
// cost of its sequence, and — since ops repeat with the cycle — equal to
// the answer of the cycle's first round. It returns the failed count.
func (w *libWorkload) verify(r libRun) (failed int, firstErr error) {
	L := len(w.cycle.Order)
	fail := func(k int, err error) {
		failed++
		if firstErr == nil {
			firstErr = fmt.Errorf("%s op %d: %w", w.name, k, err)
		}
	}
	for k, op := range r.ops {
		i, _ := w.cycle.op(k)
		in := w.insts[i]
		if op.err != nil {
			fail(k, op.err)
			continue
		}
		if err := checkAnswer(in, op.seq, op.cost); err != nil {
			fail(k, err)
			continue
		}
		if k >= L {
			f := r.ops[k%L]
			if f.cost != op.cost || !equalInts(f.seq, op.seq) {
				fail(k, fmt.Errorf("answer differs from op %d of the same cycle position", k%L))
			}
		}
	}
	if err := checkRefs(w.refs, w.insts); err != nil {
		fail(0, err)
	}
	return failed, firstErr
}

// checkAnswer checks that seq is a permutation of the instance's genome
// positions and that cost is its exact cost.
func checkAnswer(in *duedate.Instance, seq []int, cost int64) error {
	if len(seq) != in.GenomeLen() || !problem.IsPermutation(seq) {
		return fmt.Errorf("sequence is not a permutation of %d genome positions", in.GenomeLen())
	}
	c, err := duedate.Cost(in, seq)
	if err != nil {
		return err
	}
	if c != cost {
		return fmt.Errorf("reported cost %d, sequence costs %d", cost, c)
	}
	return nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// endToEnd turns a verified untraced run into the end-to-end metrics.
func (w *libWorkload) endToEnd(r libRun, failed int) metrics {
	n := len(r.ops)
	lat := make([]float64, n)
	within := 0
	for k, op := range r.ops {
		lat[k] = ms(op.lat)
		if op.err == nil && op.lat <= libLimit {
			within++
		}
	}
	m := metrics{}
	m.set("throughput_ops_s", r.opsPerS, "1/s")
	m.setTail("latency_ms_p95", lat, 0.95)
	// p99 is out of reach at this op size (it would need 1000 ops per
	// run); the tail metric of a library workload is its p95.
	m.setTail("latency_ms_tail", lat, 0.95)
	m.set("latency_ms_p50", median(lat), "ms")
	m.set("cpu_ms_per_op", ms(r.cpuPerOp), "ms")
	m.set("slo_frac", float64(within)/float64(n), "1")
	m.set("quality_gap_pct", w.qualityGap(r), "%")
	m.set("success_frac", float64(n-failed)/float64(n), "1")
	return m
}

// qualityGap is the mean gap over the first op cycle, which every run
// completes and which repeats exactly for a seed.
func (w *libWorkload) qualityGap(r libRun) float64 {
	L := len(w.cycle.Order)
	gaps := make([]float64, L)
	for k := 0; k < L; k++ {
		i, _ := w.cycle.op(k)
		gaps[k] = gapPct(r.ops[k].cost, w.refs[i].Cost)
	}
	return mean(gaps)
}
