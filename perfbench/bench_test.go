package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/server"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, q := range []float64{0.95, 0.99} {
		n := minSamples(q)
		if beyond(q, n) < minTail || beyond(q, n-1) >= minTail {
			t.Fatalf("minSamples(%g) = %d is not the smallest count with %d beyond", q, n, minTail)
		}
		for _, size := range []int{n - 1, n, 3 * n} {
			xs := make([]float64, size)
			for i := range xs {
				xs[i] = float64(i)
			}
			v, err := tail(xs, q)
			if size < n {
				if err == nil {
					t.Errorf("p%g of %d samples was reported (%d beyond)", q*100, size, beyond(q, size))
				}
				continue
			}
			if err != nil {
				t.Errorf("p%g of %d samples: %v", q*100, size, err)
			}
			above := 0
			for _, x := range xs {
				if x > v {
					above++
				}
			}
			if above < minTail {
				t.Errorf("p%g of %d samples has %d samples beyond it", q*100, size, above)
			}
		}
	}
	if got := minSamples(0.95); got != 200 {
		t.Errorf("minSamples(0.95) = %d, want 200", got)
	}
	if got := minSamples(0.99); got != 1000 {
		t.Errorf("minSamples(0.99) = %d, want 1000", got)
	}
}

func TestWindowTail(t *testing.T) {
	n := minSamples(0.95)
	if _, err := windowTail(make([]float64, n-1), 0.95); err == nil {
		t.Fatal("a run shorter than one window reported a tail")
	}
	// Three windows; the middle one is stalled, the other two are not.
	lat := make([]float64, 3*n)
	for i := range lat {
		lat[i] = float64(i % n)
		if i/n == 1 {
			lat[i] += 1000
		}
	}
	got, err := windowTail(lat, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(rankOf(0.95, n)); got != want {
		t.Fatalf("windowTail = %g, want the unstalled windows' p95 %g", got, want)
	}
}

func TestSamplerWindows(t *testing.T) {
	s := startSampler(time.Millisecond)
	for i := 0; i < 50; i++ {
		s.done.Add(1)
		time.Sleep(100 * time.Microsecond)
	}
	rate, cpu := s.finish()
	if rate <= 0 || cpu < 0 || len(s.marks) < 2 {
		t.Fatalf("rate %g, cpu %v over %d marks", rate, cpu, len(s.marks))
	}
}

// Every run runs long enough for the tails it reports.
func TestRunsCoverTheirTails(t *testing.T) {
	rs := loadTestRefs(t)
	for _, name := range []string{wlAnneal, wlGPU} {
		if w := newLibWorkload(name, 1, rs); w.minOps() < minSamples(0.95) {
			t.Errorf("%s: %d ops cannot carry p95", name, w.minOps())
		}
	}
	if n := serveMinOps(); n < minSamples(0.99) || n < serveCycle {
		t.Errorf("serve runs stop after %d requests: too few for p99 or one cycle", n)
	}
}

func TestLibCycleIsSeeded(t *testing.T) {
	a, b := newLibCycle(7, 40), newLibCycle(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different library cycles")
	}
	c := newLibCycle(8, 40)
	if reflect.DeepEqual(a.Order, c.Order) || reflect.DeepEqual(a.Seeds, c.Seeds) {
		t.Fatal("different seeds gave the same library cycle")
	}
	seen := map[int]bool{}
	for k := 0; k < 40; k++ {
		i, s := a.op(k)
		if s == 0 {
			t.Fatal("solver seed 0 is the facade's unset sentinel")
		}
		seen[i] = true
		if j, s2 := a.op(k + 40); j != i || s2 != s {
			t.Fatalf("op %d does not repeat op %d", k+40, k)
		}
	}
	if len(seen) != 40 {
		t.Fatalf("a cycle visits %d of 40 instances", len(seen))
	}
}

func TestServeCycleIsSeeded(t *testing.T) {
	if !reflect.DeepEqual(serveCycleOps(3), serveCycleOps(3)) {
		t.Fatal("same seed gave different serve cycles")
	}
	if reflect.DeepEqual(serveCycleOps(3), serveCycleOps(4)) {
		t.Fatal("different seeds gave the same serve cycle")
	}
	cdd := genCDD(setOf(3))
	h1, _ := hotBodies(3, cdd)
	h2, _ := hotBodies(3, cdd)
	h3, _ := hotBodies(4, cdd)
	if !reflect.DeepEqual(h1, h2) || reflect.DeepEqual(h1, h3) {
		t.Fatal("hot bodies are not a function of the seed")
	}
	base := genColdBases(setOf(3))[0]
	c1 := coldBody(coldInstance(3, 4, base))
	if !bytes.Equal(c1, coldBody(coldInstance(3, 4, base))) {
		t.Fatal("same (seed, op) gave different cold requests")
	}
	if bytes.Equal(c1, coldBody(coldInstance(3, 9, base))) || bytes.Equal(c1, coldBody(coldInstance(4, 4, base))) {
		t.Fatal("a cold request repeated")
	}
}

// The serve mix keeps each reported percentile at least 15 rank points
// inside one class's band: p50 among the hot requests, p95 and p99 among
// the cold ones.
func TestServeClassShares(t *testing.T) {
	ops := serveCycleOps(1)
	hot := map[int]int{}
	cold := map[int]int{}
	for p, op := range ops {
		if (op.Hot < 0) != (p%serveStride == serveStride-1) {
			t.Fatalf("request %d has the wrong class", p)
		}
		if op.Hot >= 0 {
			hot[op.Hot]++
		} else {
			cold[op.Cold]++
		}
	}
	if len(cold) != coldRecords*4 {
		t.Fatalf("a cycle serves %d cold bases, want %d", len(cold), coldRecords*4)
	}
	for b, n := range cold {
		if n != 1 {
			t.Fatalf("cold base %d served %d times in a cycle", b, n)
		}
	}
	if len(hot) != hotCount {
		t.Fatalf("a cycle serves %d hot requests, want %d", len(hot), hotCount)
	}
	for h, n := range hot {
		if n != hotRepeats {
			t.Fatalf("hot request %d served %d times, want %d", h, n, hotRepeats)
		}
	}
	hotBand := 100 * float64(len(ops)-len(cold)) / float64(len(ops)) // hot ranks are [0, hotBand)
	if hotBand != 80 {
		t.Fatalf("hot share %g%%, want 80%%", hotBand)
	}
	const margin = 15
	if 50 > hotBand-margin {
		t.Errorf("p50 is %g points inside the hot band", hotBand-50)
	}
	for _, p := range []float64{95, 99} {
		if p < hotBand+margin {
			t.Errorf("p%g is %g points inside the cold band", p, p-hotBand)
		}
	}
	// A run stops anywhere past one cycle; a partial stride moves the
	// cold share by less than one request in a whole run.
	for n := serveCycle; n < serveCycle+serveStride; n++ {
		c := 0
		for k := 0; k < n; k++ {
			if ops[k%serveCycle].Hot < 0 {
				c++
			}
		}
		if d := math.Abs(float64(c)/float64(n) - 0.2); d > 1/float64(n) {
			t.Errorf("%d requests: cold share off by %g", n, d)
		}
	}
}

func TestGapHandlesZeroReference(t *testing.T) {
	cases := []struct {
		cost, ref int64
		want      float64
	}{
		{110, 100, 10},
		{100, 100, 0},
		{0, 0, 0},
		{3, 0, 300},
		{95, 100, -5},
	}
	for _, c := range cases {
		got := gapPct(c.cost, c.ref)
		if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("gapPct(%d, %d) = %g, want %g", c.cost, c.ref, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g", m)
	}
}

// The checked-in references match the generators, and the DP optima
// among them are what exact.SolveDP returns.
func TestReferencesMatchGenerators(t *testing.T) {
	rs := loadTestRefs(t)
	for set := uint64(1); set <= poolSets; set++ {
		if err := checkRefs(rs.CDD[set-1], genCDD(set)); err != nil {
			t.Errorf("CDD set %d: %v", set, err)
		}
		if err := checkRefs(rs.UCDDCP[set-1], genUCDDCP(set)); err != nil {
			t.Errorf("UCDDCP set %d: %v", set, err)
		}
		bases := genColdBases(set)
		if err := checkRefs(rs.Cold[set-1], bases); err != nil {
			t.Errorf("cold set %d: %v", set, err)
		}
		for i := 0; i < len(bases); i += 37 {
			r, err := exact.SolveDP(bases[i])
			if err != nil {
				t.Fatal(err)
			}
			if e := rs.Cold[set-1][i]; !e.DP || e.Cost != r.Cost {
				t.Errorf("cold set %d base %d: reference %+v, DP optimum %d", set, i, e, r.Cost)
			}
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ns int64) time.Time { return t0.Add(time.Duration(ns)) }
	root := tr.id()
	tr.record(root, 1, "child", at(10), at(40), 0)
	tr.add(root, 0, 1, "root", at(0), at(100), 0)
	stats := tr.summary()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Name < stats[j].Name })
	if stats[1].Name != "root" || stats[1].Self != 70 || stats[0].Self != 30 {
		t.Fatalf("summary %+v", stats)
	}
}

// No timed op carries a deadline, so no result depends on the wall clock.
func TestNoTimedOpCarriesADeadline(t *testing.T) {
	for name, o := range libOps {
		if !o.Deadline.IsZero() {
			t.Errorf("%s ops carry a deadline", name)
		}
	}
	cdd := genCDD(1)
	hot, _ := hotBodies(1, cdd)
	bodies := append(hot, coldBody(coldInstance(1, 4, genColdBases(1)[0])))
	for i, b := range bodies {
		var req server.SolveRequest
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatal(err)
		}
		if req.TimeoutMs != 0 {
			t.Errorf("request %d carries timeoutMs %d", i, req.TimeoutMs)
		}
	}
}

// A short traced run of each op class answers correctly, and the spans
// the clients and the handler record concurrently are all kept.
func TestTracedRunsVerify(t *testing.T) {
	rs := loadTestRefs(t)
	tr := newTracer()
	for _, name := range []string{wlAnneal, wlGPU} {
		w := newLibWorkload(name, 2, rs)
		if failed, err := w.verify(w.run(0, 2, tr)); failed != 0 {
			t.Fatalf("%s: %d failed: %v", name, failed, err)
		}
	}
	w, err := newServeWorkload(2, rs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	const n = 40
	r := w.run(0, n, tr)
	v := w.verify(r)
	if v.failed != 0 || len(r.res) != n {
		t.Fatalf("serve: %d of %d failed: %v", v.failed, len(r.res), v.err)
	}
	counts := map[string]int{}
	for _, s := range tr.spans {
		counts[s.Name]++
	}
	if counts["http.client"] != n || counts["server.ServeHTTP"] != n || counts["duedate.SolveContext"] != 4 {
		t.Fatalf("span counts %v", counts)
	}
	for _, res := range r.res {
		if res.handler <= 0 {
			t.Fatalf("request %d has no handler time", res.k)
		}
	}
}

func loadTestRefs(t *testing.T) *refSet {
	t.Helper()
	rs, err := loadRefs(refsFile)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}
