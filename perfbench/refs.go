package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	duedate "repro"
	"repro/internal/exact"
)

// refsFile holds the reference cost of every pool instance, regenerated
// with `go run . -regen-refs refs.json` from this directory. Each entry
// records the instance's canonical hash prefix, so a change to a
// generator fails the benchmark instead of silently scoring against
// stale references.
const refsFile = "refs.json"

// refEntry is one instance's reference.
type refEntry struct {
	Hash string `json:"h"` // first 16 hex digits of CanonicalHash
	Cost int64  `json:"c"`
	DP   bool   `json:"dp,omitempty"` // Cost is the proven DP optimum
}

// refSet is the reference data of all poolSets sets; index [set-1][i].
type refSet struct {
	Method string       `json:"method"`
	CDD    [][]refEntry `json:"cdd"`
	UCDDCP [][]refEntry `json:"ucddcp"`
	Cold   [][]refEntry `json:"cold"`
}

// Long solves behind the non-DP references: the best of these runs per
// instance. They are fixed-seed and deterministic, so a regeneration on
// any machine reproduces the file.
var longSolves = map[duedate.Kind][]duedate.Options{
	duedate.CDD: {
		{Algorithm: duedate.SA, Engine: duedate.EngineCPUParallel, Grid: 2, Block: 32, Iterations: 20000, Seed: 1},
		{Algorithm: duedate.SA, Engine: duedate.EngineCPUParallel, Grid: 2, Block: 32, Iterations: 20000, Seed: 2},
	},
	duedate.UCDDCP: {
		{Algorithm: duedate.SA, Engine: duedate.EngineCPUParallel, Grid: 2, Block: 32, Iterations: 5000, Seed: 1},
		{Algorithm: duedate.SA, Engine: duedate.EngineCPUParallel, Grid: 2, Block: 32, Iterations: 5000, Seed: 2},
	},
}

const refsMethod = "DP optimum (exact.SolveDP) where it applies; otherwise the best of two SA/cpu-parallel 2x32 long solves, seeds 1 and 2, 20000 iterations (CDD) or 5000 iterations (UCDDCP)"

func hashPrefix(in *duedate.Instance) string { return in.CanonicalHash()[:16] }

// reference computes one instance's reference cost.
func reference(in *duedate.Instance) refEntry {
	e := refEntry{Hash: hashPrefix(in)}
	if r, err := exact.SolveDP(in); err == nil {
		e.Cost, e.DP = r.Cost, true
		return e
	} else if !errors.Is(err, exact.ErrInapplicable) && !errors.Is(err, exact.ErrTooLarge) {
		must(err)
	}
	e.Cost = -1
	for _, o := range longSolves[in.Kind] {
		res, err := duedate.SolveContext(context.Background(), in, o)
		must(err)
		if e.Cost < 0 || res.BestCost < e.Cost {
			e.Cost = res.BestCost
		}
	}
	return e
}

// regenRefs recomputes every reference and writes the file. Sets run
// one after another; instances of a set run on all cores.
func regenRefs(path string) error {
	rs := refSet{Method: refsMethod}
	for set := uint64(1); set <= poolSets; set++ {
		rs.CDD = append(rs.CDD, referenceAll(genCDD(set)))
		rs.UCDDCP = append(rs.UCDDCP, referenceAll(genUCDDCP(set)))
		rs.Cold = append(rs.Cold, referenceAll(genColdBases(set)))
		fmt.Fprintf(os.Stderr, "refs: set %d done\n", set)
	}
	b, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func referenceAll(ins []*duedate.Instance) []refEntry {
	out := make([]refEntry, len(ins))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = reference(ins[i])
			}
		}()
	}
	for i := range ins {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// loadRefs reads a reference file.
func loadRefs(path string) (*refSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs refSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", refsFile, err)
	}
	if len(rs.CDD) != poolSets || len(rs.UCDDCP) != poolSets || len(rs.Cold) != poolSets {
		return nil, fmt.Errorf("%s: want %d sets per kind", refsFile, poolSets)
	}
	return &rs, nil
}

// checkRefs confirms that the generated instances are the ones the
// references were computed for.
func checkRefs(refs []refEntry, ins []*duedate.Instance) error {
	if len(refs) != len(ins) {
		return fmt.Errorf("reference count %d, instance count %d", len(refs), len(ins))
	}
	for i, in := range ins {
		if refs[i].Hash != hashPrefix(in) {
			return fmt.Errorf("instance %s: generator output changed since %s was made", in.Name, refsFile)
		}
	}
	return nil
}
