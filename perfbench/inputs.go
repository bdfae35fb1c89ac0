package main

import (
	"encoding/json"
	"fmt"

	duedate "repro"
	"repro/internal/server"
	"repro/internal/xrand"
)

// Instance sets. Every workload draws its instances from one of poolSets
// generated sets per kind, so reference costs can be computed once,
// offline, and checked in (refs.json). The workload seed picks the set
// and everything else: op order, per-op solver seeds, hot requests and
// the relabelings of the cold requests.
const (
	poolSets = 4

	libN       = 100 // job count of the CDD and UCDDCP instances
	cddRecords = 10  // × 4 due-date factors = 40 CDD instances per set
	ucdRecords = 40  // 40 UCDDCP instances per set

	coldN        = 60 // EARLYWORK job count of the cold serve requests
	coldMachines = 2
	coldRecords  = 64 // × 4 due-date factors = 256 cold base instances per set
)

// setOf maps a workload seed onto its instance set (1-based, as passed to
// the generators).
func setOf(seed uint64) uint64 { return seed%poolSets + 1 }

// genCDD, genUCDDCP and genColdBases generate one instance set per kind.
func genCDD(set uint64) []*duedate.Instance {
	ins, err := duedate.GenerateCDDBenchmark(libN, cddRecords, set)
	must(err)
	return ins
}

func genUCDDCP(set uint64) []*duedate.Instance {
	ins, err := duedate.GenerateUCDDCPBenchmark(libN, ucdRecords, set)
	must(err)
	return ins
}

func genColdBases(set uint64) []*duedate.Instance {
	ins, err := duedate.GenerateEarlyWorkBenchmark(coldN, coldMachines, coldRecords, set)
	must(err)
	return ins
}

// Seed streams: each use of the workload seed draws from its own xrand
// stream, so adding a use never shifts another's values.
const (
	streamLibOrder = iota + 1
	streamLibSeeds
	streamHotPick
	streamHotOrder
	streamHotSeeds
	streamColdRelabel
	streamProbe
)

// libCycle is the op cycle of a library workload: op k solves instance
// Order[k % len] with solver seed Seeds[k % len]. Every instance of the
// set appears once per cycle, so a run's mix does not depend on where it
// stops.
type libCycle struct {
	Order []int
	Seeds []uint64
}

func newLibCycle(seed uint64, n int) libCycle {
	r := xrand.NewStream(seed, streamLibOrder)
	order := identity(n)
	shuffle(r, order)
	seeds := make([]uint64, n)
	sr := xrand.NewStream(seed, streamLibSeeds)
	for i := range seeds {
		seeds[i] = sr.Uint64() | 1 // nonzero: 0 is the facade's "unset"
	}
	return libCycle{Order: order, Seeds: seeds}
}

func (c libCycle) op(k int) (inst int, seed uint64) {
	i := k % len(c.Order)
	return c.Order[i], c.Seeds[i]
}

// The serve mix: of every serveStride requests, the last is cold and the
// rest are hot. One cycle serves every cold base once and every hot
// request hotRepeats times.
const (
	hotCount    = 32
	serveStride = 5
	serveCycle  = serveStride * coldRecords * 4 // 1280 requests
	hotRepeats  = serveCycle / serveStride * (serveStride - 1) / hotCount
)

// serveOp is one request of the serve cycle: a hot request index, or a
// cold base index (Hot < 0).
type serveOp struct {
	Hot  int
	Cold int
}

// serveCycleOps returns the seeded serve cycle.
func serveCycleOps(seed uint64) []serveOp {
	r := xrand.NewStream(seed, streamHotOrder)
	hot := make([]int, 0, serveCycle)
	for h := 0; h < hotCount; h++ {
		for i := 0; i < hotRepeats; i++ {
			hot = append(hot, h)
		}
	}
	shuffle(r, hot)
	ops := make([]serveOp, serveCycle)
	hi := 0
	for p := range ops {
		if p%serveStride == serveStride-1 {
			ops[p] = serveOp{Hot: -1, Cold: p / serveStride}
			continue
		}
		ops[p] = serveOp{Hot: hot[hi], Cold: -1}
		hi++
	}
	return ops
}

// hotPick chooses the hotCount CDD instances of the set that the hot
// requests solve.
func hotPick(seed uint64, n int) []int {
	r := xrand.NewStream(seed, streamHotPick)
	idx := identity(n)
	for i := 0; i < hotCount; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:hotCount]
}

// hotRequest is the small SA configuration of a hot request.
func hotRequest(in *duedate.Instance, seed uint64) *server.SolveRequest {
	alg := duedate.SA
	return &server.SolveRequest{
		Instance:    in,
		Algorithm:   &alg,
		Engine:      duedate.EngineCPUSerial,
		Grid:        1,
		Block:       8,
		Iterations:  200,
		TempSamples: 100,
		Seed:        seed,
	}
}

// hotBodies returns the request bodies and the instance index of every
// hot request.
func hotBodies(seed uint64, cdd []*duedate.Instance) (bodies [][]byte, inst []int) {
	inst = hotPick(seed, len(cdd))
	sr := xrand.NewStream(seed, streamHotSeeds)
	for _, i := range inst {
		b, err := json.Marshal(hotRequest(cdd[i], sr.Uint64()|1))
		must(err)
		bodies = append(bodies, b)
	}
	return bodies, inst
}

// coldInstance is cold request k (the k-th request of the run, counting
// all requests): base instance base with its jobs relabeled by a
// permutation drawn from (seed, k). Relabeling keeps the optimum and the
// solver's work but changes the request bytes and the canonical hash, so
// no cold request is ever answered from a cache.
func coldInstance(seed uint64, k int, base *duedate.Instance) *duedate.Instance {
	r := xrand.NewStream(seed, streamColdRelabel<<40|uint64(k))
	p := make([]int, base.N())
	for i := range p {
		p[i] = base.Jobs[i].P
	}
	shuffle(r, p)
	in, err := duedate.NewEarlyWorkInstance(fmt.Sprintf("cold-%d", k), p, base.MachineCount(), base.D)
	must(err)
	return in
}

// coldBody is the wire request of a cold instance: AUTO with no
// deadline, which routes EARLYWORK at this size to the exact DP.
func coldBody(in *duedate.Instance) []byte {
	alg := duedate.Auto
	b, err := json.Marshal(&server.SolveRequest{Instance: in, Algorithm: &alg})
	must(err)
	return b
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func shuffle(r *xrand.XORWOW, s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
