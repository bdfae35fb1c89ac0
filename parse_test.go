package duedate_test

import (
	"errors"
	"flag"
	"strings"
	"testing"

	duedate "repro"
)

// Algorithm and Engine must satisfy flag.Value (Set on the pointer,
// String promoted from the value receiver), so CLIs bind flags straight
// to the enums.
var (
	_ flag.Value = (*duedate.Algorithm)(nil)
	_ flag.Value = (*duedate.Engine)(nil)
)

// allAlgorithms and allEngines enumerate every declared value for the
// round-trip property tests.
var allAlgorithms = []duedate.Algorithm{duedate.SA, duedate.DPSO, duedate.TA, duedate.ES, duedate.ExactDP}
var allEngines = []duedate.Engine{duedate.EngineGPU, duedate.EngineCPUParallel, duedate.EngineCPUSerial}

// TestParseRoundTripsString: Parse∘String must be the identity for every
// declared value, case-insensitively and with surrounding whitespace.
func TestParseRoundTripsString(t *testing.T) {
	for _, a := range allAlgorithms {
		for _, form := range []string{a.String(), strings.ToLower(a.String()), " " + a.String() + " "} {
			got, err := duedate.ParseAlgorithm(form)
			if err != nil {
				t.Errorf("ParseAlgorithm(%q): %v", form, err)
				continue
			}
			if got != a {
				t.Errorf("ParseAlgorithm(%q) = %v, want %v", form, got, a)
			}
		}
	}
	for _, e := range allEngines {
		for _, form := range []string{e.String(), strings.ToUpper(e.String()), " " + e.String() + "\t"} {
			got, err := duedate.ParseEngine(form)
			if err != nil {
				t.Errorf("ParseEngine(%q): %v", form, err)
				continue
			}
			if got != e {
				t.Errorf("ParseEngine(%q) = %v, want %v", form, got, e)
			}
		}
	}
}

// TestParseEngineShorthands: the CLI aliases map onto the canonical
// engines.
func TestParseEngineShorthands(t *testing.T) {
	cases := map[string]duedate.Engine{
		"cpu":    duedate.EngineCPUParallel,
		"serial": duedate.EngineCPUSerial,
	}
	for alias, want := range cases {
		got, err := duedate.ParseEngine(alias)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", alias, err)
		}
		if got != want {
			t.Errorf("ParseEngine(%q) = %v, want %v", alias, got, want)
		}
	}
}

// TestParseErrorsWrapInvalidOptions: unknown names must report
// ErrInvalidOptions so flag-parsing failures and option validation share
// one errors.Is branch.
func TestParseErrorsWrapInvalidOptions(t *testing.T) {
	if _, err := duedate.ParseAlgorithm("annealing"); !errors.Is(err, duedate.ErrInvalidOptions) {
		t.Errorf("ParseAlgorithm error = %v, want ErrInvalidOptions", err)
	}
	if _, err := duedate.ParseEngine("tpu"); !errors.Is(err, duedate.ErrInvalidOptions) {
		t.Errorf("ParseEngine error = %v, want ErrInvalidOptions", err)
	}
}

// TestFlagValueSet: Set stores parsed values and surfaces parse errors,
// exactly as the flag package will drive it.
func TestFlagValueSet(t *testing.T) {
	algo := duedate.SA
	if err := algo.Set("dpso"); err != nil || algo != duedate.DPSO {
		t.Errorf("Set(\"dpso\") → %v, %v", algo, err)
	}
	if err := algo.Set("nope"); err == nil {
		t.Error("Set accepted an unknown algorithm")
	} else if algo != duedate.DPSO {
		t.Error("failed Set clobbered the previous value")
	}
	engine := duedate.EngineGPU
	if err := engine.Set("serial"); err != nil || engine != duedate.EngineCPUSerial {
		t.Errorf("Set(\"serial\") → %v, %v", engine, err)
	}

	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	a, e := duedate.SA, duedate.EngineGPU
	fs.Var(&a, "algo", "")
	fs.Var(&e, "engine", "")
	if err := fs.Parse([]string{"-algo", "ta", "-engine", "cpu"}); err != nil {
		t.Fatal(err)
	}
	if a != duedate.TA || e != duedate.EngineCPUParallel {
		t.Errorf("flag parse produced %v/%v", a, e)
	}
}

// TestPairingsEnumeratesRegistry: the built-in drivers register SA and
// DPSO on all three engines and TA/ES on the two CPU engines, sorted by
// algorithm then engine; every pairing's names round-trip through parse.
func TestPairingsEnumeratesRegistry(t *testing.T) {
	ps := duedate.Pairings()
	if len(ps) != 12 {
		t.Fatalf("Pairings() returned %d combos, want 12: %v", len(ps), ps)
	}
	for i := 1; i < len(ps); i++ {
		prev, cur := ps[i-1], ps[i]
		if cur.Algorithm < prev.Algorithm ||
			(cur.Algorithm == prev.Algorithm && cur.Engine <= prev.Engine) {
			t.Fatalf("Pairings() not sorted at %d: %v after %v", i, cur, prev)
		}
	}
	want := map[duedate.Algorithm][]duedate.Engine{
		duedate.SA:      {duedate.EngineGPU, duedate.EngineCPUParallel, duedate.EngineCPUSerial},
		duedate.DPSO:    {duedate.EngineGPU, duedate.EngineCPUParallel, duedate.EngineCPUSerial},
		duedate.TA:      {duedate.EngineCPUParallel, duedate.EngineCPUSerial},
		duedate.ES:      {duedate.EngineCPUParallel, duedate.EngineCPUSerial},
		duedate.ExactDP: {duedate.EngineCPUSerial},
		duedate.Auto:    {duedate.EngineCPUParallel},
	}
	have := map[duedate.Algorithm]map[duedate.Engine]bool{}
	for _, p := range ps {
		if have[p.Algorithm] == nil {
			have[p.Algorithm] = map[duedate.Engine]bool{}
		}
		have[p.Algorithm][p.Engine] = true
		if a, err := duedate.ParseAlgorithm(p.Algorithm.String()); err != nil || a != p.Algorithm {
			t.Errorf("pairing algorithm %v does not round-trip (%v, %v)", p.Algorithm, a, err)
		}
		if e, err := duedate.ParseEngine(p.Engine.String()); err != nil || e != p.Engine {
			t.Errorf("pairing engine %v does not round-trip (%v, %v)", p.Engine, e, err)
		}
	}
	for algo, engines := range want {
		for _, e := range engines {
			if !have[algo][e] {
				t.Errorf("registry missing %v on %v", algo, e)
			}
		}
	}
	// Every metaheuristic driver is evaluator-backed, so those pairings
	// declare the full capability surface: all three problem kinds and
	// parallel machines. The exact layer declares its narrow provable
	// surface — the two kinds it has a DP for. The Kinds slice is a
	// private copy.
	for _, p := range ps {
		if p.Algorithm == duedate.ExactDP {
			if len(p.Kinds) != 2 || p.Kinds[0] != duedate.CDD || p.Kinds[1] != duedate.EARLYWORK || !p.Machines {
				t.Errorf("pairing %v/%v declares kinds=%v machines=%t (want CDD+EARLYWORK, machines)",
					p.Algorithm, p.Engine, p.Kinds, p.Machines)
			}
			continue
		}
		if len(p.Kinds) != 3 || !p.Machines {
			t.Errorf("pairing %v/%v declares kinds=%v machines=%t (want all three kinds, machines)",
				p.Algorithm, p.Engine, p.Kinds, p.Machines)
		}
	}
	ps[0].Kinds[0] = duedate.EARLYWORK
	if duedate.Pairings()[0].Kinds[0] != duedate.CDD {
		t.Error("Pairings() kind slices alias the registry")
	}
}

// TestValidateOptions: the admission-time validator must agree with
// SolveContext — nil for every registered pairing with sane options, the
// ErrInvalidOptions / ErrUnsupportedPairing sentinels otherwise.
func TestValidateOptions(t *testing.T) {
	for _, p := range duedate.Pairings() {
		if _, err := duedate.ValidateOptions(duedate.Options{Algorithm: p.Algorithm, Engine: p.Engine}); err != nil {
			t.Errorf("registered pairing %v/%v rejected: %v", p.Algorithm, p.Engine, err)
		}
	}
	if _, err := duedate.ValidateOptions(duedate.Options{Algorithm: duedate.TA, Engine: duedate.EngineGPU}); !errors.Is(err, duedate.ErrUnsupportedPairing) {
		t.Errorf("TA/gpu: %v (want ErrUnsupportedPairing)", err)
	}
	if _, err := duedate.ValidateOptions(duedate.Options{Grid: -1}); !errors.Is(err, duedate.ErrInvalidOptions) {
		t.Errorf("negative grid: %v (want ErrInvalidOptions)", err)
	}
	if _, err := duedate.ValidateOptions(duedate.Options{Workers: -3, Engine: duedate.EngineCPUParallel}); !errors.Is(err, duedate.ErrInvalidOptions) {
		t.Errorf("negative workers: %v (want ErrInvalidOptions)", err)
	}
	// Grid·Block must stay below the 2^20 chains the best reductions
	// index, and a product that would overflow int must not wrap.
	for _, g := range []struct{ grid, block int }{{2048, 512}, {1 << 40, 1 << 40}} {
		if _, err := duedate.ValidateOptions(duedate.Options{Grid: g.grid, Block: g.block}); !errors.Is(err, duedate.ErrInvalidOptions) {
			t.Errorf("Grid %d × Block %d: %v (want ErrInvalidOptions)", g.grid, g.block, err)
		}
	}
	if _, err := duedate.ValidateOptions(duedate.Options{Grid: 2048, Block: 511}); err != nil {
		t.Errorf("Grid 2048 × Block 511 (2^20 − 2048 chains): %v", err)
	}
	// The returned options are the normalized ones SolveContext runs.
	opts, err := duedate.ValidateOptions(duedate.Options{Algorithm: duedate.Auto, Engine: duedate.EngineGPU, Iterations: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := duedate.Options{Algorithm: duedate.Auto, Engine: duedate.EngineCPUParallel, Iterations: 7, Grid: 4, Block: 192, Seed: 1}
	if opts.Algorithm != want.Algorithm || opts.Engine != want.Engine || opts.Iterations != want.Iterations ||
		opts.Grid != want.Grid || opts.Block != want.Block || opts.Seed != want.Seed {
		t.Errorf("normalized options %+v (want %+v)", opts, want)
	}
}

// TestUnsupportedPairingErrorListsEngines: the rejection must carry the
// sentinel and name the engines that do work, so the CLI message is
// actionable.
func TestUnsupportedPairingErrorListsEngines(t *testing.T) {
	in := duedate.PaperExample(duedate.CDD)
	_, err := duedate.Solve(in, duedate.Options{Algorithm: duedate.TA, Engine: duedate.EngineGPU})
	if !errors.Is(err, duedate.ErrUnsupportedPairing) {
		t.Fatalf("error = %v, want ErrUnsupportedPairing", err)
	}
	for _, name := range []string{"cpu-parallel", "cpu-serial"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("message %q does not list registered engine %s", err, name)
		}
	}
}

// TestParseRejectionsTable sweeps malformed names through both parsers:
// every rejection must wrap ErrInvalidOptions and name the offending
// input, and near-miss spellings must not be silently coerced.
func TestParseRejectionsTable(t *testing.T) {
	algoCases := []string{
		"", " ", "annealing", "SA ES", "S A", "sa,", "dps0", "ES2",
		"threshold", "evolution", "*", "サ",
	}
	for _, s := range algoCases {
		t.Run("algo/"+s, func(t *testing.T) {
			if v, err := duedate.ParseAlgorithm(s); err == nil {
				t.Fatalf("ParseAlgorithm(%q) = %v, want error", s, v)
			} else if !errors.Is(err, duedate.ErrInvalidOptions) {
				t.Errorf("ParseAlgorithm(%q) error %v does not wrap ErrInvalidOptions", s, err)
			} else if !strings.Contains(err.Error(), "algorithm") {
				t.Errorf("ParseAlgorithm(%q) error %q does not identify the field", s, err)
			}
		})
	}
	engineCases := []string{
		"", " ", "tpu", "cpu_parallel", "cpuserial", "gpu2", "GPU!",
		"cuda", "device", "cpu parallel",
	}
	for _, s := range engineCases {
		t.Run("engine/"+s, func(t *testing.T) {
			if v, err := duedate.ParseEngine(s); err == nil {
				t.Fatalf("ParseEngine(%q) = %v, want error", s, v)
			} else if !errors.Is(err, duedate.ErrInvalidOptions) {
				t.Errorf("ParseEngine(%q) error %v does not wrap ErrInvalidOptions", s, err)
			} else if !strings.Contains(err.Error(), "engine") {
				t.Errorf("ParseEngine(%q) error %q does not identify the field", s, err)
			}
		})
	}
	// Case-folded and padded spellings are accepted — the rejection table
	// above must not overreach into the documented leniency.
	if v, err := duedate.ParseAlgorithm("  dPsO "); err != nil || v != duedate.DPSO {
		t.Errorf("ParseAlgorithm leniency broken: %v, %v", v, err)
	}
	if v, err := duedate.ParseEngine(" CPU-Serial "); err != nil || v != duedate.EngineCPUSerial {
		t.Errorf("ParseEngine leniency broken: %v, %v", v, err)
	}
}
