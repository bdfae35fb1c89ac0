package ucddcp

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/orlib"
	"repro/internal/problem"
	"repro/internal/xrand"
)

// goldenDigest is the FNV-64a digest of (cost, start, r, ops, x) over the
// inputs of TestOptimizeArraysDigest. It was captured from the
// seven-pass implementation that preceded the forward-sweep core, so it
// pins the answers and the abstract op counts — and through them every
// simulated device time — to that implementation.
const goldenDigest = 0xe82251d453e237d6

// TestOptimizeArraysDigest pins OptimizeArrays bit for bit: cost, start,
// due-date position, op count and compressions. The inputs are the
// OR-library-style UCDDCP instances at n ∈ {1, 2, 10, 100, 1000}, each at
// its own unrestricted due date and at two restrictive ones, plus random
// instances with d drawn from [0, 2ΣP] so that the degenerate r == 0 path
// is covered as well as the anchored one.
func TestOptimizeArraysDigest(t *testing.T) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var anchored, degenerate int
	record := func(in *problem.Instance, seq []int) {
		p, m, alpha, beta, gamma := ParamArrays(in)
		n := len(seq)
		x := make([]int64, n)
		cost, start, r, ops := optimizeForDigest(seq, p, m, alpha, beta, gamma, in.D, x)
		put(cost)
		put(start)
		put(int64(r))
		put(int64(ops))
		for _, v := range x {
			put(v)
		}
		// The device kernel passes x == nil; it must not change the answer.
		c2, s2, r2, o2 := optimizeForDigest(seq, p, m, alpha, beta, gamma, in.D, nil)
		if c2 != cost || s2 != start || r2 != r || o2 != ops {
			t.Fatalf("x == nil changes the result: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", c2, s2, r2, o2, cost, start, r, ops)
		}
		if r == 0 {
			degenerate++
		} else {
			anchored++
		}
	}

	rng := xrand.New(11)
	for _, n := range []int{1, 2, 10, 100, 1000} {
		ins, err := orlib.BenchmarkUCDDCP(n, 2, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			sum := in.SumP()
			for _, d := range []int64{in.D, sum / 2, sum / 5} {
				in.D = d
				seqs := 20
				if n == 1000 {
					seqs = 4
				}
				record(in, problem.IdentitySequence(n))
				for s := 0; s < seqs; s++ {
					seq := problem.IdentitySequence(n)
					xrand.Shuffle(rng, seq)
					record(in, seq)
				}
			}
		}
	}

	mr := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + mr.Intn(30)
		in := randomInstance(mr, n, 1+mr.Intn(8))
		in.D = mr.Int63n(2*in.SumP() + 1)
		record(in, randomSequence(mr, n))
	}

	if anchored == 0 || degenerate == 0 {
		t.Fatalf("inputs miss a path: %d anchored, %d with r == 0", anchored, degenerate)
	}
	if got := h.Sum64(); got != goldenDigest {
		t.Errorf("OptimizeArrays digest = %#x, want %#x (%d anchored, %d with r == 0)", got, uint64(goldenDigest), anchored, degenerate)
	}
}

// optimizeForDigest runs OptimizeArrays with fresh scratch.
func optimizeForDigest(seq []int, p, m, alpha, beta, gamma []int64, d int64, x []int64) (cost, start int64, r, ops int) {
	n := len(seq)
	return OptimizeArrays(seq, p, m, alpha, beta, gamma, d, make([]int64, n), x)
}
