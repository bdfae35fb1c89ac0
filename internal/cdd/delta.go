package cdd

import "sort"

// This file implements incremental (delta) evaluation of the CDD linear
// algorithm. A Delta caches the timing state of a committed base sequence —
// completion times, position-prefix sums of the penalty weights α and β,
// and Fenwick trees over the per-position products α·C and β·C — and
// evaluates a candidate differing in k positions in O(k + log n · log k)
// instead of O(n), by expressing every aggregate the fused breakpoint walk
// needs as "committed prefix + correction from the changed positions".
//
// The candidate's completion times differ from the base only by a constant
// offset per segment between consecutive changed positions (the running sum
// of processing-time deltas), so each prefix aggregate at cut i is the
// committed value plus O(1) correction terms readable from per-change
// cumulative arrays built in O(k). The optimal breakpoint is then found by
// binary search instead of the descending walk: the stopping condition
// g(r) = Σ_{pos<r-1} α + Σ_{pos<r-1} β − Σβ is non-decreasing in r (all
// weights are non-negative), so the walk's stopping point is exactly the
// largest r with g(r) ≤ 0.
//
// Every quantity is the same exact int64 the fused full pass computes, so
// the returned cost is bit-identical to OptimizeArrays on the candidate.

// fenwick is a two-channel Fenwick (binary-indexed) tree over per-position
// values, answering prefix sums of α·C and β·C in O(log n) with O(log n)
// point updates. Both channels share one index traversal.
type fenwick struct {
	ac, bc []int64 // 1-based, len n+1
}

func (f *fenwick) init(n int) {
	f.ac = make([]int64, n+1)
	f.bc = make([]int64, n+1)
}

// build loads the per-position values in O(n).
func (f *fenwick) build(vac, vbc []int64) {
	n := len(vac)
	for i := 1; i <= n; i++ {
		f.ac[i] = vac[i-1]
		f.bc[i] = vbc[i-1]
	}
	for i := 1; i <= n; i++ {
		if j := i + i&(-i); j <= n {
			f.ac[j] += f.ac[i]
			f.bc[j] += f.bc[i]
		}
	}
}

// add applies a point update at 0-based position pos.
func (f *fenwick) add(pos int, dac, dbc int64) {
	for i := pos + 1; i < len(f.ac); i += i & (-i) {
		f.ac[i] += dac
		f.bc[i] += dbc
	}
}

// prefix returns both channel sums over 0-based positions < i.
func (f *fenwick) prefix(i int) (ac, bc int64) {
	for ; i > 0; i -= i & (-i) {
		ac += f.ac[i]
		bc += f.bc[i]
	}
	return ac, bc
}

// Delta evaluates candidates against a committed base sequence under a
// propose/commit protocol:
//
//	cost := dl.Reset(seq)          // cache seq, full O(n) rebuild
//	cost := dl.Propose(cand, pos)  // O(k+log n·log k); cand differs from
//	                               // the base at (a subset of) positions pos
//	dl.Commit()                    // adopt the proposed candidate
//
// Propose does not mutate the cache, so rejected candidates cost nothing
// further; at most one proposal is pending and a new Propose replaces it.
// When the changed window exceeds n/2 (population crossovers), Propose
// falls back to the fused full pass transparently. Commit is O(span·log n)
// for the windowed path and O(n) when the span exceeds n/8.
//
// The generic index type lets the host metaheuristics ([]int sequences) and
// the simulated GPU pipeline ([]int32 rows) share this one implementation.
// A Delta is not safe for concurrent use.
type Delta[S Index] struct {
	p, alpha, beta []int64
	d              int64
	n              int

	// Committed state.
	seq      []S
	comp     []int64 // completion times of the start-0 schedule
	pa, pb   []int64 // pa[i] = Σ_{pos<i} α[seq[pos]], len n+1
	vac, vbc []int64 // per-position α·C and β·C
	fen      fenwick
	totalBC  int64
	cost     int64
	start    int64
	dueJob   int
	tau      int // #{pos : comp[pos] ≤ d}, the committed boundary position

	// Pending proposal.
	pendValid  bool
	pendFull   bool // candidate held wholesale in fullSeq
	pendCost   int64
	pendStart  int64
	pendDueJob int
	k          int   // number of genuinely changed positions
	qs         []int // those positions, sorted ascending
	jobs       []S   // candidate job at each changed position
	// Cumulative corrections over the changed positions, 1-based with a
	// leading zero: cumD/cumA/cumB accumulate the deltas of p/α/β at the
	// changes, cumAC/cumBC the deltas of α·C/β·C at the changes themselves
	// (new job at its shifted completion), segA/segB the offset corrections
	// cumD·Σα (resp. β) of the unchanged segment following each change.
	cumD, cumA, cumB, cumAC, cumBC, segA, segB []int64

	fullSeq  []S
	fullComp []int64
}

// NewDelta builds a delta evaluator over the given parameter arrays (as
// produced by ParamArrays) and due date. Reset must be called before the
// first Propose.
func NewDelta[S Index](p, alpha, beta []int64, d int64) *Delta[S] {
	n := len(p)
	dl := &Delta[S]{p: p, alpha: alpha, beta: beta, d: d, n: n}
	dl.seq = make([]S, n)
	dl.comp = make([]int64, n)
	dl.pa = make([]int64, n+1)
	dl.pb = make([]int64, n+1)
	dl.vac = make([]int64, n)
	dl.vbc = make([]int64, n)
	dl.fen.init(n)
	dl.qs = make([]int, 0, n)
	dl.jobs = make([]S, n)
	dl.cumD = make([]int64, n+1)
	dl.cumA = make([]int64, n+1)
	dl.cumB = make([]int64, n+1)
	dl.cumAC = make([]int64, n+1)
	dl.cumBC = make([]int64, n+1)
	dl.segA = make([]int64, n+1)
	dl.segB = make([]int64, n+1)
	dl.fullSeq = make([]S, n)
	dl.fullComp = make([]int64, n)
	return dl
}

// Reset caches seq as the committed base sequence, rebuilding every
// aggregate in O(n), and returns its optimal cost. Any pending proposal is
// discarded.
func (dl *Delta[S]) Reset(seq []S) int64 {
	copy(dl.seq, seq)
	dl.cost, dl.start, dl.dueJob, _ = OptimizeArrays(dl.seq, dl.p, dl.alpha, dl.beta, dl.d, dl.comp)
	dl.refreshPrefixes()
	dl.pendValid = false
	return dl.cost
}

// refreshPrefixes rebuilds the prefix arrays, per-position products,
// Fenwick trees and totals from dl.seq and dl.comp in O(n).
func (dl *Delta[S]) refreshPrefixes() {
	var tbc int64
	for pos, job := range dl.seq {
		dl.pa[pos+1] = dl.pa[pos] + dl.alpha[job]
		dl.pb[pos+1] = dl.pb[pos] + dl.beta[job]
		dl.vac[pos] = dl.alpha[job] * dl.comp[pos]
		dl.vbc[pos] = dl.beta[job] * dl.comp[pos]
		tbc += dl.vbc[pos]
	}
	dl.fen.build(dl.vac, dl.vbc)
	dl.totalBC = tbc
	dl.tau = sort.Search(dl.n, func(i int) bool { return dl.comp[i] > dl.d })
}

// firstAbove returns the smallest i in [lo, hi) with arr[i] > t, or hi if
// none; arr must be non-decreasing on the range. The search probes outward
// from guess g first: between neighbouring sequences the boundary moves by
// only a few positions, so galloping from the committed value needs O(log
// shift) probes instead of O(log n).
func firstAbove(arr []int64, lo, hi int, t int64, g int) int {
	if lo >= hi {
		return hi
	}
	if g < lo {
		g = lo
	} else if g >= hi {
		g = hi - 1
	}
	if arr[g] > t {
		// Answer ≤ g: gallop left for an anchor ≤ t.
		step := 1
		for g-step >= lo && arr[g-step] > t {
			g -= step
			step <<= 1
		}
		hi = g
		if g-step >= lo {
			lo = g - step + 1
		}
	} else {
		// Answer > g: gallop right for an anchor > t.
		step := 1
		for g+step < hi && arr[g+step] <= t {
			g += step
			step <<= 1
		}
		lo = g + 1
		if g+step < hi {
			hi = g + step
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arr[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// firstAboveSum is firstAbove over the elementwise sum a[i]+b[i].
func firstAboveSum(a, b []int64, lo, hi int, t int64, g int) int {
	if lo >= hi {
		return hi
	}
	if g < lo {
		g = lo
	} else if g >= hi {
		g = hi - 1
	}
	if a[g]+b[g] > t {
		step := 1
		for g-step >= lo && a[g-step]+b[g-step] > t {
			g -= step
			step <<= 1
		}
		hi = g
		if g-step >= lo {
			lo = g - step + 1
		}
	} else {
		step := 1
		for g+step < hi && a[g+step]+b[g+step] <= t {
			g += step
			step <<= 1
		}
		lo = g + 1
		if g+step < hi {
			hi = g + step
		}
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid]+b[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Propose evaluates cand, which must equal the committed base sequence
// everywhere outside positions (order and duplicates in positions are
// irrelevant; entries where cand agrees with the base are ignored). It
// returns the candidate's optimal cost — bit-identical to a full
// OptimizeArrays pass — without mutating the committed cache. The caller
// keeps ownership of cand; Commit does not need it again.
func (dl *Delta[S]) Propose(cand []S, positions []int) int64 {
	dl.qs = dl.qs[:0]
	for _, q := range positions {
		if cand[q] != dl.seq[q] {
			dl.qs = append(dl.qs, q)
		}
	}
	if len(dl.qs) <= 16 {
		// Insertion sort: the hot path hands over a handful of positions
		// (Pert = 4), far below sort.Ints' dispatch overhead.
		for i := 1; i < len(dl.qs); i++ {
			for j := i; j > 0 && dl.qs[j] < dl.qs[j-1]; j-- {
				dl.qs[j], dl.qs[j-1] = dl.qs[j-1], dl.qs[j]
			}
		}
	} else {
		sort.Ints(dl.qs)
	}
	k := 0
	for i, q := range dl.qs {
		if i > 0 && q == dl.qs[k-1] {
			continue
		}
		dl.qs[k] = q
		k++
	}
	dl.qs = dl.qs[:k]
	dl.k = k
	dl.pendValid = true

	if k == 0 {
		dl.pendFull = false
		dl.pendCost, dl.pendStart, dl.pendDueJob = dl.cost, dl.start, dl.dueJob
		return dl.pendCost
	}
	if k > dl.n/2 {
		// The change is not sparse; a fused full pass is cheaper than the
		// correction machinery.
		dl.pendFull = true
		copy(dl.fullSeq, cand)
		dl.pendCost, dl.pendStart, dl.pendDueJob, _ =
			OptimizeArrays(dl.fullSeq, dl.p, dl.alpha, dl.beta, dl.d, dl.fullComp)
		return dl.pendCost
	}

	dl.pendFull = false
	for j, q := range dl.qs {
		oldJob, newJob := dl.seq[q], cand[q]
		dl.jobs[j] = newJob
		dl.cumD[j+1] = dl.cumD[j] + dl.p[newJob] - dl.p[oldJob]
		dl.cumA[j+1] = dl.cumA[j] + dl.alpha[newJob] - dl.alpha[oldJob]
		dl.cumB[j+1] = dl.cumB[j] + dl.beta[newJob] - dl.beta[oldJob]
		newC := dl.comp[q] + dl.cumD[j+1]
		dl.cumAC[j+1] = dl.cumAC[j] + dl.alpha[newJob]*newC - dl.vac[q]
		dl.cumBC[j+1] = dl.cumBC[j] + dl.beta[newJob]*newC - dl.vbc[q]
		hi := dl.n
		if j+1 < k {
			hi = dl.qs[j+1]
		}
		dl.segA[j+1] = dl.segA[j] + dl.cumD[j+1]*(dl.pa[hi]-dl.pa[q+1])
		dl.segB[j+1] = dl.segB[j] + dl.cumD[j+1]*(dl.pb[hi]-dl.pb[q+1])
	}
	dl.pendCost, dl.pendStart, dl.pendDueJob = dl.deltaTiming()
	return dl.pendCost
}

// changedBefore returns the number of changed positions < i. qs is sorted,
// so a linear scan with early exit beats binary search at hot-path sizes.
func (dl *Delta[S]) changedBefore(i int) int {
	qs := dl.qs
	if len(qs) > 16 {
		return sort.SearchInts(qs, i)
	}
	c := 0
	for _, q := range qs {
		if q >= i {
			break
		}
		c++
	}
	return c
}

// compAt returns the candidate's completion time at pos: the committed
// value plus the processing-time offset of the segment pos falls in.
func (dl *Delta[S]) compAt(pos int) int64 {
	return dl.comp[pos] + dl.cumD[dl.changedBefore(pos+1)]
}

// paAt / pbAt return the candidate's prefix sums of α / β over pos < i.
func (dl *Delta[S]) paAt(i int) int64 { return dl.pa[i] + dl.cumA[dl.changedBefore(i)] }
func (dl *Delta[S]) pbAt(i int) int64 { return dl.pb[i] + dl.cumB[dl.changedBefore(i)] }

// pacbcAt returns the candidate's prefix sums of α·C and β·C over pos < i:
// the committed Fenwick prefix, plus the corrections at the changed
// positions themselves, plus the segment-offset corrections of unchanged
// positions — full segments from segA/segB and the partial segment
// containing i from the committed weight prefixes.
func (dl *Delta[S]) pacbcAt(i int) (int64, int64) {
	ac, bc := dl.fen.prefix(i)
	j := dl.changedBefore(i)
	ac += dl.cumAC[j]
	bc += dl.cumBC[j]
	if j > 0 {
		q := dl.qs[j-1]
		ac += dl.segA[j-1] + dl.cumD[j]*(dl.pa[i]-dl.pa[q+1])
		bc += dl.segB[j-1] + dl.cumD[j]*(dl.pb[i]-dl.pb[q+1])
	}
	return ac, bc
}

// deltaTiming mirrors the fused breakpoint walk of OptimizeArrays on the
// candidate, reading every aggregate through the correction accessors and
// replacing the descending walk by a binary search over the non-decreasing
// stopping condition.
func (dl *Delta[S]) deltaTiming() (cost, start int64, dueJob int) {
	n, d, k := dl.n, dl.d, dl.k
	totalB := dl.pb[n] + dl.cumB[k]
	_, totalBC := dl.pacbcAt(n)

	// τ: candidate completion times are strictly increasing (p ≥ 1), so the
	// boundary position is a binary search. The correction offset cumD[j] is
	// constant within each of the k+1 unchanged segments, so the segment
	// containing the boundary is found linearly (k is tiny) and the search
	// inside it probes the raw committed array against a shifted target —
	// no per-probe changedBefore.
	tau := n
	for j := 0; j <= k; j++ {
		segLo := 0
		if j > 0 {
			segLo = dl.qs[j-1]
		}
		segHi := n
		if j < k {
			segHi = dl.qs[j]
		}
		if segLo >= segHi {
			continue
		}
		target := d - dl.cumD[j]
		if dl.comp[segHi-1] <= target {
			continue
		}
		tau = firstAbove(dl.comp, segLo, segHi, target, dl.tau)
		break
	}
	if tau == 0 {
		return totalBC - d*totalB, 0, 0
	}
	if dl.compAt(tau-1) < d {
		a := dl.paAt(tau)
		b := totalB - dl.pbAt(tau)
		if b >= a {
			ac, bcPre := dl.pacbcAt(tau)
			bc := totalBC - bcPre
			return a*d - ac + bc - b*d, 0, 0
		}
	}
	// Largest r ∈ [1, τ] with g(r) = paC(r−1) + pbC(r−1) − totalB ≤ 0; g is
	// non-decreasing and g(1) = −totalB ≤ 0, so the search lands exactly
	// where the descending walk of the full pass stops. Same segmented
	// scheme: prefix index i has correction cumA[j]+cumB[j] with
	// j = #{q < i}, constant for i ∈ (qs[j−1], qs[j]].
	r := tau
	for j := 0; j <= k; j++ {
		segLo := 0
		if j > 0 {
			segLo = dl.qs[j-1] + 1
		}
		segHi := tau
		if j < k && dl.qs[j]+1 < segHi {
			segHi = dl.qs[j] + 1
		}
		if segLo >= segHi {
			if segLo >= tau {
				break
			}
			continue
		}
		target := totalB - dl.cumA[j] - dl.cumB[j]
		if dl.pa[segHi-1]+dl.pb[segHi-1] <= target {
			continue
		}
		r = firstAboveSum(dl.pa, dl.pb, segLo, segHi, target, dl.dueJob)
		break
	}
	cm := dl.compAt(r - 1)
	a := dl.paAt(r - 1)
	b := totalB - dl.pbAt(r-1)
	ac, bcPre := dl.pacbcAt(r - 1)
	bc := totalBC - bcPre
	return a*cm - ac + bc - b*cm, d - cm, r
}

// Commit adopts the pending candidate as the new committed base sequence.
// The windowed path updates only the affected span in O(span·log n); when
// the span exceeds n/8 — or the proposal was a full-pass fallback — the
// aggregates are rebuilt wholesale in O(n). Panics without a pending
// proposal.
func (dl *Delta[S]) Commit() {
	if !dl.pendValid {
		panic("cdd: Commit without Propose")
	}
	dl.pendValid = false
	k := dl.k
	if dl.pendFull {
		copy(dl.seq, dl.fullSeq)
		dl.commitRebuild()
		return
	}
	if k == 0 {
		return
	}
	span := dl.qs[k-1] - dl.qs[0] + 1
	if span > dl.n/8 || dl.cumD[k] != 0 || dl.cumA[k] != 0 || dl.cumB[k] != 0 {
		// Wide window, or the changed positions do not hold a permutation
		// of the same jobs (the corrections then reach past the window):
		// rebuild wholesale.
		for j, q := range dl.qs {
			dl.seq[q] = dl.jobs[j]
		}
		dl.commitRebuild()
		return
	}
	var dbcSum int64
	for j := 0; j < k; j++ {
		q := dl.qs[j]
		dl.seq[q] = dl.jobs[j]
		dbcSum += dl.updatePos(q, dl.cumD[j+1])
		// Unchanged positions of the segment (q, next): completion times
		// shift by the running offset; weight prefixes pa[i]/pb[i] for
		// i ∈ (q, next] gain the running weight deltas. Segments where the
		// respective correction is zero are skipped wholesale — for j = k−1
		// the weight deltas are zero by the guard above, so qs[j+1] is
		// never read out of range.
		if off := dl.cumD[j+1]; off != 0 {
			hi := dl.n
			if j+1 < k {
				hi = dl.qs[j+1]
			}
			for pos := q + 1; pos < hi; pos++ {
				dbcSum += dl.updatePos(pos, off)
			}
		}
		if da, db := dl.cumA[j+1], dl.cumB[j+1]; da != 0 || db != 0 {
			for i := q + 1; i <= dl.qs[j+1]; i++ {
				dl.pa[i] += da
				dl.pb[i] += db
			}
		}
	}
	dl.totalBC += dbcSum
	dl.cost, dl.start, dl.dueJob = dl.pendCost, dl.pendStart, dl.pendDueJob
	// Completion times inside the window moved; re-anchor the committed
	// boundary (a gallop from the old value, O(log shift)).
	dl.tau = firstAbove(dl.comp, 0, dl.n, dl.d, dl.tau)
}

// commitRebuild recomputes completion times and aggregates from dl.seq in
// O(n), reusing the already-computed pending timing for the cost fields.
func (dl *Delta[S]) commitRebuild() {
	var t int64
	for pos, job := range dl.seq {
		t += dl.p[job]
		dl.comp[pos] = t
	}
	dl.refreshPrefixes()
	dl.cost, dl.start, dl.dueJob = dl.pendCost, dl.pendStart, dl.pendDueJob
}

// updatePos applies the completion-time offset at pos (whose job in dl.seq
// is already current), refreshing the per-position products and the
// Fenwick trees, and returns the β·C delta for the running total.
func (dl *Delta[S]) updatePos(pos int, off int64) (dbc int64) {
	dl.comp[pos] += off
	job := dl.seq[pos]
	nvac := dl.alpha[job] * dl.comp[pos]
	nvbc := dl.beta[job] * dl.comp[pos]
	dac := nvac - dl.vac[pos]
	dbc = nvbc - dl.vbc[pos]
	if dac != 0 || dbc != 0 {
		dl.fen.add(pos, dac, dbc)
		dl.vac[pos] = nvac
		dl.vbc[pos] = nvbc
	}
	return dbc
}
