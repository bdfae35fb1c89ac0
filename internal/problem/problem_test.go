package problem

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperExampleData(t *testing.T) {
	cddIn := PaperExample(CDD)
	if cddIn.N() != 5 || cddIn.D != 16 {
		t.Fatalf("CDD example: n=%d d=%d, want 5 and 16", cddIn.N(), cddIn.D)
	}
	if !cddIn.Restrictive() {
		t.Error("CDD example (d=16 < ΣP=21) should be restrictive")
	}
	ucddcpIn := PaperExample(UCDDCP)
	if ucddcpIn.D != 22 || ucddcpIn.Restrictive() {
		t.Errorf("UCDDCP example: d=%d restrictive=%v, want 22 and false", ucddcpIn.D, ucddcpIn.Restrictive())
	}
	if got := ucddcpIn.SumP(); got != 21 {
		t.Errorf("ΣP = %d, want 21", got)
	}
	if got := ucddcpIn.SumM(); got != 18 {
		t.Errorf("ΣM = %d, want 18", got)
	}
	if err := cddIn.Validate(); err != nil {
		t.Errorf("CDD example invalid: %v", err)
	}
	if err := ucddcpIn.Validate(); err != nil {
		t.Errorf("UCDDCP example invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Instance { return PaperExample(UCDDCP) }
	cases := []struct {
		name   string
		mutate func(*Instance)
		want   string
	}{
		{"no jobs", func(in *Instance) { in.Jobs = nil }, "no jobs"},
		{"negative d", func(in *Instance) { in.D = -1 }, "negative due date"},
		{"zero P", func(in *Instance) { in.Jobs[2].P = 0 }, "processing time"},
		{"M above P", func(in *Instance) { in.Jobs[1].M = in.Jobs[1].P + 1 }, "minimum processing time"},
		{"negative alpha", func(in *Instance) { in.Jobs[0].Alpha = -3 }, "earliness penalty"},
		{"negative beta", func(in *Instance) { in.Jobs[0].Beta = -3 }, "tardiness penalty"},
		{"negative gamma", func(in *Instance) { in.Jobs[0].Gamma = -3 }, "compression penalty"},
		{"restrictive UCDDCP", func(in *Instance) { in.D = 5 }, "unrestricted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := base()
			tc.mutate(in)
			err := in.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid instance")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestConstructorLengthChecks(t *testing.T) {
	if _, err := NewCDD("x", []int{1, 2}, []int{1}, []int{1, 1}, 3); err == nil {
		t.Error("NewCDD accepted mismatched slices")
	}
	if _, err := NewUCDDCP("x", []int{1}, []int{1, 1}, []int{1}, []int{1}, []int{1}, 3); err == nil {
		t.Error("NewUCDDCP accepted mismatched slices")
	}
}

func TestClone(t *testing.T) {
	in := PaperExample(UCDDCP)
	cp := in.Clone()
	cp.Jobs[0].P = 99
	cp.D = 1234
	if in.Jobs[0].P == 99 || in.D == 1234 {
		t.Error("Clone shares state with the original")
	}
}

func TestScheduleCostAgainstManual(t *testing.T) {
	in := PaperExample(CDD)
	// Figure 1 of the paper: start 0, completions {6,11,13,17,21}, d=16.
	s := Schedule{Seq: IdentitySequence(5), Start: 0}
	comps := s.Completions(in)
	want := []int64{6, 11, 13, 17, 21}
	for i := range want {
		if comps[i] != want[i] {
			t.Errorf("completion[%d]=%d want %d", i, comps[i], want[i])
		}
	}
	// Manual penalty at start 0: earliness 10,5,3 and tardiness 1,5.
	manual := int64(7*10 + 9*5 + 6*3 + 3*1 + 2*5)
	if got := s.Cost(in); got != manual {
		t.Errorf("cost=%d want %d", got, manual)
	}
}

func TestScheduleValidate(t *testing.T) {
	in := PaperExample(UCDDCP)
	good := Schedule{Seq: IdentitySequence(5), Start: 3, X: []int64{1, 0, 0, 1, 0}}
	if err := good.Validate(in); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	bad := []Schedule{
		{Seq: []int{0, 1, 2}, Start: 0},                                 // wrong length
		{Seq: []int{0, 1, 2, 3, 3}, Start: 0},                           // not a permutation
		{Seq: IdentitySequence(5), Start: -1},                           // negative start
		{Seq: IdentitySequence(5), Start: 0, X: []int64{0, 0, 0, 0}},    // short X
		{Seq: IdentitySequence(5), Start: 0, X: []int64{2, 0, 0, 0, 0}}, // X > P-M
	}
	for i, s := range bad {
		if err := s.Validate(in); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestIsPermutationQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	// A shuffled identity is always a permutation.
	shuffled := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw%40)
		rng := rand.New(rand.NewSource(seed))
		seq := IdentitySequence(n)
		rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		return IsPermutation(seq)
	}
	if err := quick.Check(shuffled, cfg); err != nil {
		t.Error(err)
	}
	// Any duplicate breaks it.
	duplicated := func(seed int64, nRaw uint8) bool {
		n := 2 + int(nRaw%40)
		rng := rand.New(rand.NewSource(seed))
		seq := IdentitySequence(n)
		i, j := rng.Intn(n), rng.Intn(n)
		for j == i {
			j = rng.Intn(n)
		}
		seq[i] = seq[j]
		return !IsPermutation(seq)
	}
	if err := quick.Check(duplicated, cfg); err != nil {
		t.Error(err)
	}
}

func TestDueDatePosition(t *testing.T) {
	in := PaperExample(CDD)
	s := Schedule{Seq: IdentitySequence(5), Start: 5} // completions {11,16,...}
	if pos := s.DueDatePosition(in); pos != 2 {
		t.Errorf("due date position %d, want 2", pos)
	}
	s.Start = 4
	if pos := s.DueDatePosition(in); pos != 0 {
		t.Errorf("due date position %d, want 0 (nobody at d)", pos)
	}
}

func TestGanttMentionsJobsAndDueDate(t *testing.T) {
	in := PaperExample(CDD)
	s := Schedule{Seq: IdentitySequence(5), Start: 5}
	g := s.Gantt(in)
	for _, frag := range []string{"J1", "J5", "d=16", "t=5"} {
		if !strings.Contains(g, frag) {
			t.Errorf("Gantt output missing %q: %s", frag, g)
		}
	}
}

func TestKindString(t *testing.T) {
	if CDD.String() != "CDD" || UCDDCP.String() != "UCDDCP" {
		t.Error("Kind.String broken")
	}
	if got := Kind(42).String(); !strings.Contains(got, "42") {
		t.Errorf("unknown kind formatted as %q", got)
	}
}

func TestSequenceCostMatchesSchedule(t *testing.T) {
	in := PaperExample(UCDDCP)
	seq := []int{4, 3, 2, 1, 0}
	x := []int64{1, 0, 0, 1, 1}
	s := Schedule{Seq: seq, Start: 2, X: x}
	if a, b := s.Cost(in), SequenceCost(in, seq, 2, x); a != b {
		t.Errorf("Schedule.Cost=%d SequenceCost=%d", a, b)
	}
}

func TestVShapeViolationsOnSortedSchedule(t *testing.T) {
	in := PaperExample(CDD)
	// Construct an exaggerated V-shaped order: early side by decreasing
	// P/α, tardy side by increasing P/β.
	desc := SortedByRatio(in, func(j Job) int { return j.Alpha }, true)
	s := Schedule{Seq: desc, Start: 0}
	if v := VShapeViolations(in, &s); v < 0 {
		t.Errorf("violations negative: %d", v)
	}
	// A fully early (huge d) schedule sorted descending by P/α must have
	// zero early-side violations.
	in2 := in.Clone()
	in2.D = 1000
	s2 := Schedule{Seq: desc, Start: 0}
	if v := VShapeViolations(in2, &s2); v != 0 {
		t.Errorf("sorted early-side violations = %d, want 0", v)
	}
}

// TestValidateCostLimit: an instance is admitted exactly when its
// objective bound stays below CostLimit — Σ max(α, β)·ΣP for CDD, plus
// Σ γ·(P − M) for UCDDCP, ΣP for EARLYWORK — and huge fields saturate
// instead of wrapping.
func TestValidateCostLimit(t *testing.T) {
	// ΣP = 4096 = 2^12 and Σ max(α, β) = 2^31 − 1: bound 2^43 − 4096.
	under := func() *Instance {
		in, err := NewCDD("under", []int{1024, 2048, 1024}, []int{715827882, 1, 715827882}, []int{1, 715827883, 0}, 0)
		if err != nil {
			t.Fatalf("bound 2^43 − 4096 rejected: %v", err)
		}
		return in
	}
	in := under()
	in.Jobs[2].Alpha++ // bound 2^43
	if err := in.Validate(); err == nil {
		t.Error("CDD bound of exactly 2^43 accepted")
	}

	uc := under()
	uc.Kind, uc.D = UCDDCP, 4096
	if err := uc.Validate(); err != nil {
		t.Fatalf("UCDDCP without compression: %v", err)
	}
	uc.Jobs[0].M, uc.Jobs[0].Gamma = 1020, 1024 // + 4·1024 = 2^43
	if err := uc.Validate(); err == nil {
		t.Error("UCDDCP bound of exactly 2^43 accepted")
	}

	ew := &Instance{Kind: EARLYWORK, D: 1, Machines: 2, Jobs: []Job{{P: 1 << 42, M: 1 << 42}, {P: 1<<42 - 1, M: 1<<42 - 1}}}
	if err := ew.Validate(); err != nil {
		t.Fatalf("EARLYWORK with ΣP = 2^43 − 1: %v", err)
	}
	ew.Jobs[1].P++
	ew.Jobs[1].M++
	if err := ew.Validate(); err == nil {
		t.Error("EARLYWORK with ΣP = 2^43 accepted")
	}

	huge := &Instance{Kind: CDD, Jobs: []Job{{P: math.MaxInt, M: math.MaxInt, Alpha: math.MaxInt}, {P: math.MaxInt, M: math.MaxInt, Beta: 1}}}
	if err := huge.Validate(); err == nil {
		t.Error("instance with MaxInt fields accepted")
	}
}
