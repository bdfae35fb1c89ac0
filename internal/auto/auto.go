// Package auto is the self-tuning portfolio layer behind the facade's
// AUTO algorithm: a calibrated picker that maps an instance's shape
// (problem kind, job count, machine count) to the predicted-best static
// algorithm×engine pairing, plus the candidate sets an online race
// launches when a wall-clock budget allows comparing configurations
// live.
//
// The package deliberately knows pairings only by name ("SA" on
// "cpu-parallel"), never by the facade's enum types — the root package
// registers the AUTO driver and owns the dispatch, so auto stays
// import-cycle-free and testable in isolation. Every Choice the picker
// returns is validated against KnownPairings: a corrupt or hostile
// calibration file can change which known pairing is picked, but can
// never smuggle an unregistered one past the registry (FuzzAutoPick
// pins this).
package auto

import (
	"sort"

	"repro/internal/problem"
	"repro/internal/xrand"
)

// Choice is one concrete dispatch target: a registered pairing plus the
// tuning overrides the calibration sweep found best for its bucket.
// Zero override fields mean "leave the caller's option untouched".
type Choice struct {
	// Algorithm and Engine name the pairing in the facade's textual form
	// ("SA", "DPSO", "TA", "ES", "EXACT-DP" × "gpu", "cpu-parallel",
	// "cpu-serial").
	Algorithm string `json:"algorithm"`
	Engine    string `json:"engine"`
	// Grid and Block override the ensemble geometry (0 = keep).
	Grid  int `json:"grid,omitempty"`
	Block int `json:"block,omitempty"`
	// Iterations overrides the per-chain iteration budget (0 = keep).
	Iterations int `json:"iterations,omitempty"`
	// Workers overrides the host goroutine bound (0 = keep).
	Workers int `json:"workers,omitempty"`
}

// Pairing renders the choice's registry key ("SA/cpu-parallel") — the
// form used by Metrics.AutoPick and the race phase names.
func (c Choice) Pairing() string { return c.Algorithm + "/" + c.Engine }

// valid reports whether the choice names a known registered pairing and
// carries sane (non-negative) overrides. EXACT-DP is excluded: its
// dispatch is owned by the DP gates (Decision.AttemptDP), and as a
// bucket choice it could dead-end on kinds outside its exact domain.
func (c Choice) valid() bool {
	return c.Algorithm != "EXACT-DP" && KnownPairings[c.Pairing()] &&
		c.Grid >= 0 && c.Block >= 0 && c.Iterations >= 0 && c.Workers >= 0
}

// KnownPairings enumerates every static pairing the picker may return —
// the facade registry minus AUTO itself (the meta-driver never recurses).
// TestKnownPairingsRegistered in the root package asserts this set is a
// subset of the live duedate.Pairings(), so a registry change that drops
// a pairing fails fast here instead of at dispatch time.
var KnownPairings = map[string]bool{
	"SA/gpu":              true,
	"SA/cpu-parallel":     true,
	"SA/cpu-serial":       true,
	"DPSO/gpu":            true,
	"DPSO/cpu-parallel":   true,
	"DPSO/cpu-serial":     true,
	"TA/cpu-parallel":     true,
	"TA/cpu-serial":       true,
	"ES/cpu-parallel":     true,
	"ES/cpu-serial":       true,
	"EXACT-DP/cpu-serial": true,
}

// fallback is the pick of last resort when no calibration bucket applies
// (or the table is corrupt): the paper's best performer on the portable
// engine.
var fallback = Choice{Algorithm: "SA", Engine: "cpu-parallel"}

// Decision is the picker's routing verdict for one instance shape.
type Decision struct {
	// AttemptDP routes the instance through EXACT-DP first: the shape is
	// inside the calibration's DP gates, so a proven optimum is likely
	// cheap. The dispatcher must still tolerate a typed decline (no
	// agreeable order, state budget) and fall back to Choice.
	AttemptDP bool
	// Choice is the predicted-best static pairing for a model-mode
	// (no-deadline) dispatch; always a member of KnownPairings.
	Choice Choice
	// Candidates is the racing set, leader first, deduplicated, every
	// entry in KnownPairings. Length 1 means "nothing worth racing" and
	// the dispatcher runs Choice directly even under a deadline.
	Candidates []Choice
}

// Pick routes one instance shape through the calibration table: DP gates
// first, then the smallest bucket of the kind covering n, with the
// built-in fallback when nothing matches. A nil receiver uses the gates
// and buckets of the embedded default table. The returned choices are
// always valid per KnownPairings regardless of the table's content.
func (c *Calibration) Pick(kind problem.Kind, n, machines int) Decision {
	if c == nil {
		c = Default()
	}
	d := Decision{Choice: fallback}
	switch {
	case kind == problem.CDD && machines <= 1 && n <= c.DP.CDDMaxN:
		d.AttemptDP = true
	case kind == problem.EARLYWORK && n <= c.DP.EarlyWorkMaxN:
		d.AttemptDP = true
	}
	if b := c.bucket(kind, n); b != nil {
		if b.Choice.valid() {
			d.Choice = b.Choice
		}
		for _, cand := range b.Candidates {
			if cand.valid() {
				d.Candidates = append(d.Candidates, cand)
			}
		}
	}
	d.Candidates = dedupChoices(d.Choice, d.Candidates)
	return d
}

// bucket returns the tightest bucket of the kind covering n: the
// smallest MaxN ≥ n, else the kind's open-ended bucket (MaxN ≤ 0), else
// the kind's largest bucket, else nil.
func (c *Calibration) bucket(kind problem.Kind, n int) *Bucket {
	var best, widest *Bucket
	for i := range c.Buckets {
		b := &c.Buckets[i]
		if b.Kind != kind.String() {
			continue
		}
		if b.MaxN <= 0 || b.MaxN >= n {
			if best == nil || boundOf(b) < boundOf(best) {
				best = b
			}
		}
		if widest == nil || boundOf(b) > boundOf(widest) {
			widest = b
		}
	}
	if best != nil {
		return best
	}
	return widest
}

// boundOf orders buckets: an unset MaxN is open-ended (sorts last).
func boundOf(b *Bucket) int {
	if b.MaxN <= 0 {
		return int(^uint(0) >> 1)
	}
	return b.MaxN
}

// dedupChoices places the leader first and removes pairing duplicates,
// keeping each pairing's first override set.
func dedupChoices(leader Choice, cands []Choice) []Choice {
	out := []Choice{leader}
	seen := map[string]bool{leader.Pairing(): true}
	for _, c := range cands {
		if seen[c.Pairing()] {
			continue
		}
		seen[c.Pairing()] = true
		out = append(out, c)
	}
	return out
}

// RaceSeeds derives one deterministic RNG seed per racing candidate from
// the caller's seed by SplitMix64 stream-splitting (the same generator
// xrand.NewStream uses to decorrelate chains): candidate i always
// receives the i-th split of the caller seed, so a race's per-candidate
// trajectories are reproducible even though which candidate wins a
// wall-clock race is not. Zero splits are remapped to 1 to respect the
// facade's Seed-0 sentinel.
func RaceSeeds(seed uint64, k int) []uint64 {
	state := seed
	out := make([]uint64, k)
	for i := range out {
		s := xrand.SplitMix64(&state)
		if s == 0 {
			s = 1
		}
		out[i] = s
	}
	return out
}

// sortBuckets normalizes table order (kind, then MaxN with open-ended
// last) so Marshal output is stable for diffing checked-in tables.
func sortBuckets(bs []Bucket) {
	sort.SliceStable(bs, func(i, j int) bool {
		if bs[i].Kind != bs[j].Kind {
			return bs[i].Kind < bs[j].Kind
		}
		return boundOf(&bs[i]) < boundOf(&bs[j])
	})
}
