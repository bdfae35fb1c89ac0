package core

import "repro/internal/problem"

// MachineDeltaEvaluator is the incremental propose/commit evaluator for
// genome-coded instances (parallel machines and EARLYWORK) and for
// single-machine UCDDCP, whose genome is one segment. It caches the
// committed genome together with its per-machine segment costs and prices
// a move at machine granularity: a move touching positions [lo, hi] can
// only change the machines whose segments intersect that window, so only
// those segments are rescored with the exact single-machine cores —
// O(window + affected segment lengths), about 2n/m per small move —
// while every other machine keeps its cached cost.
//
// The machine-range bound relies on the delta contract: the candidate
// equals the base genome outside the touched positions, so the candidate
// permutes the same value multiset inside the window. The separator
// count of every prefix that fully contains or fully excludes the window
// is therefore identical in base and candidate, which pins the machine
// index of every position outside the window and bounds the affected
// machines by the base's separator ranks at the window edges.
type MachineDeltaEvaluator struct {
	in  *problem.Instance
	soa *SoAInstance
	// comp is the single-machine kernels' scratch (length N).
	comp []int64

	base    []int   // committed genome
	segCost []int64 // committed per-machine segment costs
	total   int64   // committed total cost
	// sepsBefore[i] counts separators in base[0:i] — the machine rank of
	// position i. sepRank[r] is the position of the r-th separator in
	// position order (machine r ends there).
	sepsBefore []int
	sepRank    []int

	// Pending proposal: the touched window, the affected machine range,
	// the rescored segment costs and separator positions, and a copy of
	// the candidate window for Commit.
	pLo, pHi       int
	pSegLo, pSegHi int
	pSeg           []int64
	pSepRank       []int
	pWin           []int
	pDelta         int64
	pending, pNoop bool
}

// NewMachineDeltaEvaluator builds the evaluator for an instance of any
// kind and machine count; on one machine the single segment is the whole
// genome.
func NewMachineDeltaEvaluator(in *problem.Instance) *MachineDeltaEvaluator {
	soa := NewSoAInstance(in)
	return &MachineDeltaEvaluator{
		in:         in,
		soa:        soa,
		comp:       make([]int64, soa.N),
		base:       make([]int, soa.L),
		segCost:    make([]int64, soa.Machines),
		sepsBefore: make([]int, soa.L+1),
		sepRank:    make([]int, soa.Machines-1),
		pSeg:       make([]int64, soa.Machines),
		pSepRank:   make([]int, soa.Machines-1),
		pWin:       make([]int, soa.L),
	}
}

// Instance implements Evaluator.
func (e *MachineDeltaEvaluator) Instance() *problem.Instance { return e.in }

// Cost implements Evaluator: a stateless full genome evaluation that
// never disturbs the committed cache.
func (e *MachineDeltaEvaluator) Cost(seq []int) int64 {
	return GenomeCostArrays(seq, e.soa, e.comp)
}

// Reset caches seq as the committed base genome and returns its cost.
func (e *MachineDeltaEvaluator) Reset(seq []int) int64 {
	copy(e.base, seq)
	e.pending = false
	n := e.soa.N
	e.total = 0
	k := 0
	lo := 0
	for i := 0; i <= len(e.base); i++ {
		e.sepsBefore[i] = k
		if i == len(e.base) || e.base[i] < n {
			continue
		}
		c := segmentCost(e.base[lo:i], e.soa, e.comp)
		e.segCost[k] = c
		e.total += c
		e.sepRank[k] = i
		k++
		lo = i + 1
	}
	c := segmentCost(e.base[lo:], e.soa, e.comp)
	e.segCost[k] = c
	e.total += c
	return e.total
}

// segStart returns the base position where machine k's segment begins.
func (e *MachineDeltaEvaluator) segStart(k int) int {
	if k == 0 {
		return 0
	}
	return e.sepRank[k-1] + 1
}

// Propose evaluates a candidate genome that differs from the base only at
// (a subset of) the given positions, rescoring exactly the machines whose
// segments intersect the touched window.
func (e *MachineDeltaEvaluator) Propose(cand []int, positions []int) int64 {
	if len(positions) == 0 {
		e.pending, e.pNoop = true, true
		return e.total
	}
	lo, hi := positions[0], positions[0]
	for _, p := range positions[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	n := e.soa.N
	segLo := e.sepsBefore[lo]
	segHi := e.sepsBefore[hi+1]
	start := e.segStart(segLo)
	var delta int64
	i, segStart, k := start, start, segLo
	for {
		if i == len(cand) || cand[i] >= n {
			c := segmentCost(cand[segStart:i], e.soa, e.comp)
			e.pSeg[k] = c
			delta += c - e.segCost[k]
			if i < len(cand) {
				e.pSepRank[k] = i
			}
			k++
			segStart = i + 1
			if k > segHi {
				break
			}
		}
		i++
	}
	e.pLo, e.pHi, e.pSegLo, e.pSegHi = lo, hi, segLo, segHi
	copy(e.pWin[:hi-lo+1], cand[lo:hi+1])
	e.pDelta = delta
	e.pending, e.pNoop = true, false
	return e.total + delta
}

// Commit adopts the pending candidate as the new base genome, updating
// the cached segment costs, separator ranks and prefix counts for the
// touched window only.
func (e *MachineDeltaEvaluator) Commit() {
	if !e.pending {
		panic("core: MachineDeltaEvaluator.Commit without a pending Propose")
	}
	e.pending = false
	if e.pNoop {
		return
	}
	lo, hi := e.pLo, e.pHi
	copy(e.base[lo:hi+1], e.pWin[:hi-lo+1])
	for k := e.pSegLo; k <= e.pSegHi; k++ {
		e.segCost[k] = e.pSeg[k]
		if k < len(e.sepRank) {
			e.sepRank[k] = e.pSepRank[k]
		}
	}
	e.total += e.pDelta
	n := e.soa.N
	for i := lo + 1; i <= hi+1; i++ {
		c := e.sepsBefore[i-1]
		if e.base[i-1] >= n {
			c++
		}
		e.sepsBefore[i] = c
	}
}
