package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	duedate "repro"
	"repro/internal/problem"
)

// algp spells an explicit request algorithm (the wire field is a
// pointer so absence selects the server's configured default).
func algp(a duedate.Algorithm) *duedate.Algorithm { return &a }

// postJSON marshals v and posts it to url, returning the status and body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Bytes()
}

// decodeInto unmarshals body into v, failing the test on error.
func decodeInto(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("unmarshal %T: %v\nbody: %s", v, err, body)
	}
}

// newTestServer builds a server + httptest listener and registers
// cleanup (drain) on t.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// TestSolveRoundTripBitIdentical pins the core serving contract: for the
// same (instance, algorithm, engine, seed, iterations, geometry) the
// server's response equals a direct duedate.SolveContext call bit for
// bit, on both problems and both a CPU and the GPU engine.
func TestSolveRoundTripBitIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2})
	cases := []struct {
		name string
		req  SolveRequest
	}{
		{"cdd-cpu-serial", SolveRequest{
			Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.SA),
			Engine: duedate.EngineCPUSerial, Iterations: 60, Grid: 1, Block: 8,
			Seed: 42, TempSamples: 50,
		}},
		{"ucddcp-gpu", SolveRequest{
			Instance: duedate.PaperExample(duedate.UCDDCP), Algorithm: algp(duedate.SA),
			Engine: duedate.EngineGPU, Iterations: 40, Grid: 1, Block: 4,
			Seed: 7, TempSamples: 50,
		}},
		{"cdd-dpso-cpu-parallel", SolveRequest{
			Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.DPSO),
			Engine: duedate.EngineCPUParallel, Iterations: 40, Grid: 1, Block: 8,
			Seed: 3,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := postJSON(t, ts.URL+"/v1/solve", tc.req)
			if status != http.StatusOK {
				t.Fatalf("status %d, body %s", status, body)
			}
			var got SolveResponse
			decodeInto(t, body, &got)

			want, err := duedate.SolveContext(context.Background(), tc.req.Instance, tc.req.options())
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != want.BestCost {
				t.Errorf("cost %d, direct SolveContext %d", got.Cost, want.BestCost)
			}
			if fmt.Sprint(got.Sequence) != fmt.Sprint(want.BestSeq) {
				t.Errorf("sequence %v, direct SolveContext %v", got.Sequence, want.BestSeq)
			}
			if got.Iterations != want.Iterations || got.Evaluations != want.Evaluations {
				t.Errorf("accounting (%d it, %d evals), direct (%d, %d)",
					got.Iterations, got.Evaluations, want.Iterations, want.Evaluations)
			}
			sched := want.Schedule(tc.req.Instance)
			if got.Start != sched.Start || fmt.Sprint(got.Compressions) != fmt.Sprint(sched.X) {
				t.Errorf("schedule (start %d, X %v), direct (start %d, X %v)",
					got.Start, got.Compressions, sched.Start, sched.X)
			}
			if got.Cached || got.Interrupted {
				t.Errorf("fresh full-budget solve reported cached=%t interrupted=%t", got.Cached, got.Interrupted)
			}
		})
	}
}

// blockingSolve installs a fake solver that signals each start and
// blocks until release is closed, returning the identity sequence.
func blockingSolve(s *Server, started chan<- struct{}, release <-chan struct{}) {
	s.solve = func(ctx context.Context, in *problem.Instance, opts duedate.Options) (duedate.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return duedate.Result{BestSeq: problem.IdentitySequence(in.N()), BestCost: 1}, nil
	}
}

// TestQueueSaturationReturns429 fills the single worker and the
// zero-depth queue, then requires admission control to answer 429 — and
// to admit again once the pool frees up.
func TestQueueSaturationReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1, QueueDepth: -1})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	blockingSolve(s, started, release)

	req := SolveRequest{Instance: duedate.PaperExample(duedate.CDD), Engine: duedate.EngineCPUSerial, NoCache: true}
	firstDone := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/solve", req)
		firstDone <- status
	}()
	<-started // the worker is now occupied and the queue is empty

	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(reqBody(t, req))))
	if err != nil {
		t.Fatal(err)
	}
	var erBody bytes.Buffer
	if _, err := erBody.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated queue answered %d (want 429), body %s", resp.StatusCode, erBody.Bytes())
	}
	var er ErrorResponse
	decodeInto(t, erBody.Bytes(), &er)
	if er.Error.Code != CodeQueueFull || er.Error.Message == "" {
		t.Errorf("error payload %+v (want code %q)", er, CodeQueueFull)
	}
	// Backpressure answers carry a Retry-After estimate in whole seconds.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After %q (want integer >= 1)", resp.Header.Get("Retry-After"))
	}

	close(release)
	if st := <-firstDone; st != http.StatusOK {
		t.Fatalf("admitted request finished with %d", st)
	}
	// The pool is free again: the same request is admitted now.
	if status, body := postJSON(t, ts.URL+"/v1/solve", req); status != http.StatusOK {
		t.Fatalf("post-saturation request answered %d, body %s", status, body)
	}
}

// TestResultCacheHitAndMiss solves the same request twice and requires
// the second answer to come from the cache, byte-identical modulo the
// cached flag; noCache must bypass the lookup.
func TestResultCacheHitAndMiss(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	req := SolveRequest{
		Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.SA),
		Engine: duedate.EngineCPUSerial, Iterations: 40, Grid: 1, Block: 4,
		Seed: 9, TempSamples: 50,
	}
	status, body1 := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("first solve: %d %s", status, body1)
	}
	var first, second SolveResponse
	decodeInto(t, body1, &first)
	if first.Cached {
		t.Fatal("first solve reported cached")
	}

	status, body2 := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("second solve: %d %s", status, body2)
	}
	decodeInto(t, body2, &second)
	if !second.Cached {
		t.Fatal("identical resubmission was not served from the cache")
	}
	second.Cached = false
	if fmt.Sprintf("%+v", first) != fmt.Sprintf("%+v", second) {
		t.Errorf("cached response differs:\nfirst  %+v\nsecond %+v", first, second)
	}

	// A different seed is a different trajectory: must miss.
	req.Seed = 10
	var third SolveResponse
	_, body3 := postJSON(t, ts.URL+"/v1/solve", req)
	decodeInto(t, body3, &third)
	if third.Cached {
		t.Error("different seed hit the cache")
	}

	// noCache bypasses the lookup even for a cached key.
	req.Seed = 9
	req.NoCache = true
	var fourth SolveResponse
	_, body4 := postJSON(t, ts.URL+"/v1/solve", req)
	decodeInto(t, body4, &fourth)
	if fourth.Cached {
		t.Error("noCache request was served from the cache")
	}

	var m MetricsResponse
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Server.CacheHits != 1 || m.Server.CacheMisses != 2 {
		t.Errorf("metrics counted %d hits / %d misses (want 1 / 2)", m.Server.CacheHits, m.Server.CacheMisses)
	}
	if m.CacheEntries != 2 || m.Server.Completed != 3 {
		t.Errorf("metrics: %d cache entries (want 2), %d completed (want 3)", m.CacheEntries, m.Server.Completed)
	}
	if m.Solver.Runs != 3 || m.Solver.Totals.Evaluations == 0 {
		t.Errorf("solver registry observed %d runs with %d evaluations", m.Solver.Runs, m.Solver.Totals.Evaluations)
	}
}

// TestCacheHitEchoesRequestName pins the per-request echo of a cache
// hit: the canonical hash excludes the instance name, so a renamed
// resubmission is a hit, but its answer (and the wire entry stored under
// its bytes) must carry its own name, not the first requester's.
func TestCacheHitEchoesRequestName(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	named := func(name string) SolveRequest {
		in := duedate.PaperExample(duedate.CDD)
		in.Name = name
		return SolveRequest{
			Instance: in, Algorithm: algp(duedate.SA), Engine: duedate.EngineCPUSerial,
			Iterations: 40, Grid: 1, Block: 4, Seed: 9, TempSamples: 50,
		}
	}
	var first SolveResponse
	_, body := postJSON(t, ts.URL+"/v1/solve", named("first"))
	decodeInto(t, body, &first)
	// The second post is a result-cache hit, the third a wire hit.
	for i := 0; i < 2; i++ {
		var second SolveResponse
		status, body := postJSON(t, ts.URL+"/v1/solve", named("second"))
		if status != http.StatusOK {
			t.Fatalf("renamed resubmission: %d %s", status, body)
		}
		decodeInto(t, body, &second)
		if !second.Cached || second.Instance != "second" || second.Cost != first.Cost {
			t.Errorf("post %d: instance %q cached %t cost %d (want \"second\", true, %d)",
				i+2, second.Instance, second.Cached, second.Cost, first.Cost)
		}
	}
}

// TestCacheKeyNormalisedOptions pins the cache key to the normalised
// options: requests that spell one trajectory differently share an
// entry, and each hit echoes the algorithm and engine it was sent.
func TestCacheKeyNormalisedOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	// req is the small fixed request with seed and one edit applied.
	req := func(seed uint64, edit func(*SolveRequest)) SolveRequest {
		r := SolveRequest{
			Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.SA),
			Engine: duedate.EngineCPUSerial, Iterations: 40, Grid: 1, Block: 4, Seed: seed, TempSamples: 50,
		}
		edit(&r)
		return r
	}
	keep := func(*SolveRequest) {}
	cases := []struct {
		name          string
		first, second SolveRequest
	}{
		{"seed-0-vs-1", req(0, keep), req(1, keep)},
		{"grid-0-vs-4", req(5, func(r *SolveRequest) { r.Grid = 0 }), req(5, func(r *SolveRequest) { r.Grid = 4 })},
		{"block-0-vs-192", req(6, func(r *SolveRequest) { r.Block = 0 }), req(6, func(r *SolveRequest) { r.Block = 192 })},
		{"auto-any-engine",
			req(7, func(r *SolveRequest) { r.Algorithm, r.Engine = algp(duedate.Auto), duedate.EngineGPU }),
			req(7, func(r *SolveRequest) { r.Algorithm = algp(duedate.Auto) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var first, second SolveResponse
			_, body := postJSON(t, ts.URL+"/v1/solve", tc.first)
			decodeInto(t, body, &first)
			status, body := postJSON(t, ts.URL+"/v1/solve", tc.second)
			if status != http.StatusOK {
				t.Fatalf("second request: %d %s", status, body)
			}
			decodeInto(t, body, &second)
			if first.Cached || !second.Cached || second.Cost != first.Cost {
				t.Errorf("cached %t then %t, cost %d then %d (want a hit with the same cost)",
					first.Cached, second.Cached, first.Cost, second.Cost)
			}
			if first.Algorithm != *tc.first.Algorithm || first.Engine != tc.first.Engine ||
				second.Algorithm != *tc.second.Algorithm || second.Engine != tc.second.Engine {
				t.Errorf("echoed %v/%v then %v/%v (want each request's own selection)",
					first.Algorithm, first.Engine, second.Algorithm, second.Engine)
			}
		})
	}
}

// TestDeadlineExpiredReturnsInterrupted sends a request whose budget
// cannot complete within its deadline and requires a 200 with the valid
// best-so-far marked interrupted — and that the partial result is not
// cached.
func TestDeadlineExpiredReturnsInterrupted(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	inst, err := duedate.GenerateCDDBenchmark(100, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{
		Instance: inst[0], Algorithm: algp(duedate.SA), Engine: duedate.EngineCPUSerial,
		Iterations: 200000, Grid: 8, Block: 8, Seed: 5, TempSamples: 10,
		TimeoutMs: 60,
	}
	status, body := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var got SolveResponse
	decodeInto(t, body, &got)
	if !got.Interrupted {
		t.Fatal("deadline-bounded request was not interrupted (budget too small?)")
	}
	if len(got.Sequence) != inst[0].N() || !problem.IsPermutation(got.Sequence) {
		t.Fatalf("interrupted best-so-far is not a valid permutation: %v", got.Sequence)
	}
	if _, c, err := duedate.OptimizeSequence(inst[0], got.Sequence); err != nil || c != got.Cost {
		t.Fatalf("interrupted cost %d dishonest (re-evaluated %d, err %v)", got.Cost, c, err)
	}

	// The partial result must not shadow a full-budget answer.
	status, body = postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("second request: %d %s", status, body)
	}
	var again SolveResponse
	decodeInto(t, body, &again)
	if again.Cached {
		t.Error("interrupted result was cached")
	}
}

// TestErrorStatusMapping table-tests the HTTP translation of the facade
// sentinels and malformed bodies: ErrInvalidOptions → 400,
// ErrUnsupportedPairing → 422, and the instance-semantics sentinels
// (problem.ErrUnknownKind, problem.ErrMachines) → 422 — a well-formed
// request for something the service does not support — never an opaque
// 500 for caller mistakes. Every rejection must carry the unified
// envelope with its stable machine-readable code.
func TestErrorStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	valid := duedate.PaperExample(duedate.CDD)
	cases := []struct {
		name string
		body string
		want int
		code string
	}{
		{"unsupported-pairing-ta-gpu",
			reqBody(t, SolveRequest{Instance: valid, Algorithm: algp(duedate.TA), Engine: duedate.EngineGPU}),
			http.StatusUnprocessableEntity, CodeUnsupportedPairing},
		{"unsupported-pairing-es-gpu",
			reqBody(t, SolveRequest{Instance: valid, Algorithm: algp(duedate.ES), Engine: duedate.EngineGPU}),
			http.StatusUnprocessableEntity, CodeUnsupportedPairing},
		{"invalid-options-negative-grid",
			reqBody(t, SolveRequest{Instance: valid, Engine: duedate.EngineCPUSerial, Grid: -1}),
			http.StatusBadRequest, CodeInvalidOptions},
		{"invalid-options-negative-workers",
			reqBody(t, SolveRequest{Instance: valid, Engine: duedate.EngineCPUParallel, Workers: -2}),
			http.StatusBadRequest, CodeInvalidOptions},
		{"unknown-algorithm-name",
			`{"instance":` + instJSON(t, valid) + `,"algorithm":"XX"}`,
			http.StatusBadRequest, CodeInvalidRequest},
		{"unknown-engine-name",
			`{"instance":` + instJSON(t, valid) + `,"engine":"tpu"}`,
			http.StatusBadRequest, CodeInvalidRequest},
		{"unknown-instance-kind",
			`{"instance":{"name":"x","kind":"nope","dueDate":5,"jobs":[{"p":1,"alpha":1,"beta":1}]}}`,
			http.StatusUnprocessableEntity, CodeUnknownKind},
		{"negative-machine-count",
			`{"instance":{"name":"x","kind":"CDD","dueDate":5,"machines":-2,"jobs":[{"p":1,"alpha":1,"beta":1}]}}`,
			http.StatusUnprocessableEntity, CodeInvalidMachines},
		{"objective-overflow",
			`{"instance":{"name":"x","kind":"CDD","dueDate":0,"jobs":[{"p":1000000,"alpha":10000000,"beta":10000000},` +
				`{"p":2000000,"alpha":10000000,"beta":12000000},{"p":1500000,"alpha":10000000,"beta":11000000}]}}`,
			http.StatusBadRequest, CodeInvalidRequest},
		{"invalid-instance-no-jobs",
			`{"instance":{"name":"x","kind":"CDD","dueDate":5,"jobs":[]}}`,
			http.StatusBadRequest, CodeInvalidRequest},
		{"missing-instance", `{}`, http.StatusBadRequest, CodeInvalidRequest},
		{"unknown-field", `{"instance":` + instJSON(t, valid) + `,"bogus":1}`, http.StatusBadRequest, CodeInvalidRequest},
		{"malformed-json", `{"instance":`, http.StatusBadRequest, CodeInvalidRequest},
	}
	// Every endpoint speaks the same envelope: the same body submitted
	// synchronously and as an async job must answer the identical
	// (status, code) pair.
	for _, endpoint := range []string{"/v1/solve", "/v1/jobs"} {
		for _, tc := range cases {
			t.Run(endpoint+"/"+tc.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+endpoint, "application/json", bytes.NewReader([]byte(tc.body)))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var er ErrorResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
					t.Fatalf("non-JSON error body: %v", err)
				}
				if resp.StatusCode != tc.want {
					t.Errorf("status %d (want %d), error %+v", resp.StatusCode, tc.want, er.Error)
				}
				if er.Error.Code != tc.code || er.Error.Message == "" {
					t.Errorf("error payload %+v (want code %q)", er.Error, tc.code)
				}
			})
		}
	}
}

// reqBody marshals a SolveRequest for the table tests.
func reqBody(t *testing.T, r SolveRequest) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// instJSON marshals an instance for hand-assembled request bodies.
func instJSON(t *testing.T, in *problem.Instance) string {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelEarlyWorkRoundTrip drives a 3-machine EARLYWORK instance
// through /v1/solve and pins the generalized serving contract: the
// response carries the machine count, a delimiter genome of length
// n+m−1, a full job→machine assignment with per-machine starts, an
// honest cost, and the instance's canonical hash — and an identical
// resubmission is served from the cache byte-for-byte.
func TestParallelEarlyWorkRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	inst, err := duedate.NewEarlyWorkInstance("ew-rt", []int{6, 5, 2, 4, 4, 3, 7}, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{
		Instance: inst, Algorithm: algp(duedate.SA), Engine: duedate.EngineCPUSerial,
		Iterations: 60, Grid: 1, Block: 8, Seed: 13, TempSamples: 50,
	}
	status, body := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	var got SolveResponse
	decodeInto(t, body, &got)
	if got.Kind != "EARLYWORK" || got.Machines != 3 || got.N != inst.N() {
		t.Errorf("echoed kind=%q machines=%d n=%d, want EARLYWORK/3/%d", got.Kind, got.Machines, got.N, inst.N())
	}
	if got.InstanceHash != inst.CanonicalHash() {
		t.Errorf("instanceHash %q != CanonicalHash %q", got.InstanceHash, inst.CanonicalHash())
	}
	if len(got.Sequence) != inst.GenomeLen() || !problem.IsPermutation(got.Sequence) {
		t.Fatalf("best genome %v is not a permutation of 0..%d", got.Sequence, inst.GenomeLen()-1)
	}
	if c, err := duedate.Cost(inst, got.Sequence); err != nil || c != got.Cost {
		t.Errorf("reported cost %d dishonest (re-evaluated %d, err %v)", got.Cost, c, err)
	}
	if len(got.Assignment) != inst.N() || len(got.MachineStarts) != 3 {
		t.Fatalf("assignment %v / machineStarts %v incomplete for n=%d m=3", got.Assignment, got.MachineStarts, inst.N())
	}
	for job, k := range got.Assignment {
		if k < 0 || k >= 3 {
			t.Errorf("job %d assigned to machine %d outside [0,3)", job, k)
		}
	}

	// The canonical hash keys the cache: the identical resubmission must
	// hit, differing only in the cached flag.
	status, body2 := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("resubmission: %d %s", status, body2)
	}
	var again SolveResponse
	decodeInto(t, body2, &again)
	if !again.Cached {
		t.Fatal("identical parallel-machine resubmission missed the cache")
	}
	again.Cached = false
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", again) {
		t.Errorf("cached response differs:\nfirst  %+v\nsecond %+v", got, again)
	}

	// Same jobs on one machine is a different canonical hash — must miss.
	single := inst.Clone()
	single.Machines = 1
	if single.CanonicalHash() == inst.CanonicalHash() {
		t.Fatal("machine count does not participate in the canonical hash")
	}
	reqSingle := req
	reqSingle.Instance = single
	_, body3 := postJSON(t, ts.URL+"/v1/solve", reqSingle)
	var fresh SolveResponse
	decodeInto(t, body3, &fresh)
	if fresh.Cached {
		t.Error("single-machine variant hit the parallel instance's cache entry")
	}
	if fresh.Machines != 0 || fresh.Assignment != nil || fresh.MachineStarts != nil {
		t.Errorf("single-machine response leaked parallel fields: machines=%d assign=%v starts=%v",
			fresh.Machines, fresh.Assignment, fresh.MachineStarts)
	}
}

// TestBatchMixedOutcomes posts a batch whose slots succeed, lack an
// instance, and name an unsupported pairing — each slot must carry its
// own status and the good slot must match a direct solve.
func TestBatchMixedOutcomes(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2})
	good := SolveRequest{
		Instance: duedate.PaperExample(duedate.UCDDCP), Algorithm: algp(duedate.SA),
		Engine: duedate.EngineCPUSerial, Iterations: 40, Grid: 1, Block: 4, Seed: 11, TempSamples: 50,
	}
	batch := BatchRequest{Requests: []SolveRequest{
		good,
		{}, // missing instance
		{Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.TA), Engine: duedate.EngineGPU},
	}}
	status, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("batch status %d, body %s", status, body)
	}
	var resp BatchResponse
	decodeInto(t, body, &resp)
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if resp.Results[0].Status != http.StatusOK || resp.Results[0].Response == nil {
		t.Fatalf("good slot: %+v", resp.Results[0])
	}
	want, err := duedate.SolveContext(context.Background(), good.Instance, good.options())
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Results[0].Response; got.Cost != want.BestCost || fmt.Sprint(got.Sequence) != fmt.Sprint(want.BestSeq) {
		t.Errorf("batch slot (%d, %v) differs from direct solve (%d, %v)",
			got.Cost, got.Sequence, want.BestCost, want.BestSeq)
	}
	if resp.Results[1].Status != http.StatusBadRequest || resp.Results[1].Error == "" || resp.Results[1].Code != CodeInvalidRequest {
		t.Errorf("missing-instance slot: %+v", resp.Results[1])
	}
	if resp.Results[2].Status != http.StatusUnprocessableEntity || resp.Results[2].Code != CodeUnsupportedPairing {
		t.Errorf("unsupported-pairing slot: %+v", resp.Results[2])
	}
	if resp.Results[0].Code != "" {
		t.Errorf("good slot carries error code %q", resp.Results[0].Code)
	}
}

// TestFixtureRequestsServe posts every checked-in example request body
// (testdata/server/*.json — the bodies the daemon's docs curl) through
// /v1/solve, so the fixtures can never drift from the wire format.
func TestFixtureRequestsServe(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 2})
	fixtures, err := filepath.Glob("../../testdata/server/*.json")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no server fixtures found (err %v)", err)
	}
	for _, path := range fixtures {
		t.Run(filepath.Base(path), func(t *testing.T) {
			body, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var out bytes.Buffer
			if _, err := out.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("fixture answered %d: %s", resp.StatusCode, out.Bytes())
			}
			var sr SolveResponse
			decodeInto(t, out.Bytes(), &sr)
			if sr.Interrupted || len(sr.Sequence) == 0 {
				t.Errorf("fixture solve incomplete: %+v", sr)
			}
		})
	}
}

// TestPairingsEndpoint requires /v1/pairings to mirror the live driver
// registry exactly.
func TestPairingsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	resp, err := http.Get(ts.URL + "/v1/pairings")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got PairingsResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := duedate.Pairings()
	if len(got.Pairings) != len(want) {
		t.Fatalf("%d pairings served, registry has %d", len(got.Pairings), len(want))
	}
	for i, p := range want {
		if got.Pairings[i].Algorithm != p.Algorithm || got.Pairings[i].Engine != p.Engine {
			t.Errorf("pairing %d: served %v/%v, registry %v/%v",
				i, got.Pairings[i].Algorithm, got.Pairings[i].Engine, p.Algorithm, p.Engine)
		}
		// The capability matrix mirrors the registration declarations.
		kinds := make([]string, len(p.Kinds))
		for j, k := range p.Kinds {
			kinds[j] = k.String()
		}
		if fmt.Sprint(got.Pairings[i].Kinds) != fmt.Sprint(kinds) {
			t.Errorf("pairing %d kinds %v, registry %v", i, got.Pairings[i].Kinds, kinds)
		}
		if got.Pairings[i].Machines != p.Machines {
			t.Errorf("pairing %d machines=%t, registry %t", i, got.Pairings[i].Machines, p.Machines)
		}
	}
	// Every built-in metaheuristic is evaluator-backed: full kind coverage
	// and parallel machines everywhere. The exact layer serves its narrow
	// declared surface instead.
	for _, p := range got.Pairings {
		if p.Algorithm == duedate.ExactDP {
			if fmt.Sprint(p.Kinds) != "[CDD EARLYWORK]" || !p.Machines {
				t.Errorf("exact pairing %v/%v declares kinds=%v machines=%t (want CDD+EARLYWORK, machines)",
					p.Algorithm, p.Engine, p.Kinds, p.Machines)
			}
			continue
		}
		if len(p.Kinds) != 3 || !p.Machines {
			t.Errorf("built-in pairing %v/%v declares kinds=%v machines=%t (want all three kinds, machines)",
				p.Algorithm, p.Engine, p.Kinds, p.Machines)
		}
	}
}

// TestGracefulDrain exercises the SIGTERM drain semantics under -race:
// with solves running and queued, Drain must flip healthz to 503, turn
// new work away with 503, complete every admitted solve, and return.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 2, QueueDepth: 2})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	blockingSolve(s, started, release)

	req := SolveRequest{Instance: duedate.PaperExample(duedate.CDD), Engine: duedate.EngineCPUSerial, NoCache: true}
	const inflight = 3 // 2 running + 1 queued
	statuses := make(chan int, inflight)
	var wg sync.WaitGroup
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := postJSON(t, ts.URL+"/v1/solve", req)
			statuses <- status
		}()
	}
	<-started
	<-started // both workers busy
	// Wait until the third request is admitted to the queue — draining
	// must complete queued work, not reject it.
	waitFor(t, func() bool { return s.stats.requests.Load() == inflight })

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	waitFor(t, func() bool { return s.draining.Load() })

	// Draining: health answers 503 and new solves are turned away.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d (want 503)", hr.StatusCode)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/solve", req); status != http.StatusServiceUnavailable {
		t.Errorf("new solve during drain: %d (want 503)", status)
	}

	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Errorf("in-flight request finished with %d during drain (want 200)", status)
		}
	}
	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestRunServesAndDrainsOnContextCancel drives the daemon entry point
// end to end: serve on a real listener, answer a request, then cancel
// the context (the SIGTERM path of cmd/duedated) and require a clean
// drain.
func TestRunServesAndDrainsOnContextCancel(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() {
		runErr <- Run(ctx, l, Config{Pool: 2}, 10*time.Second)
	}()
	base := "http://" + l.Addr().String()
	waitFor(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	req := SolveRequest{
		Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.SA),
		Engine: duedate.EngineCPUSerial, Iterations: 40, Grid: 1, Block: 4, Seed: 2, TempSamples: 50,
	}
	status, body := postJSON(t, base+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("solve via Run: %d %s", status, body)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v (want clean drain)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not drain after context cancellation")
	}
}

// TestCacheLRUEviction pins the bound on the result cache: capacity 2
// must evict the least recently used key, and interrupted responses
// never enter it.
func TestCacheLRUEviction(t *testing.T) {
	s := New(Config{Pool: 1, CacheSize: 2})
	defer s.Drain(context.Background())
	put := func(k string) { s.cache.put([]byte(k), &SolveResponse{Instance: k}) }
	put("a")
	put("b")
	if _, ok := s.cache.get([]byte("a")); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	put("c") // evicts b
	if _, ok := s.cache.get([]byte("b")); ok {
		t.Error("b survived past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := s.cache.get([]byte(k)); !ok {
			t.Errorf("%s evicted wrongly", k)
		}
	}
	if s.cache.len() != 2 {
		t.Errorf("len %d, want 2", s.cache.len())
	}
	// Interrupted responses never enter; the storage rule lives at the
	// call site, so run one full and one interrupted task through it.
	s.solve = func(ctx context.Context, in *problem.Instance, opts duedate.Options) (duedate.Result, error) {
		return duedate.Result{BestSeq: problem.IdentitySequence(in.N()), BestCost: 1, Interrupted: opts.Seed == 2}, nil
	}
	for _, seed := range []uint64{1, 2} {
		req := &SolveRequest{Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.SA), Seed: seed}
		tk := getTask()
		tk.ctx, tk.req, tk.opts, tk.key = context.Background(), req, req.options(), []byte(fmt.Sprint("seed", seed))
		s.runTask(tk)
		if res := <-tk.done; res.err != nil || res.resp.Interrupted != (seed == 2) {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		putTask(tk)
	}
	if _, ok := s.cache.get([]byte("seed2")); ok {
		t.Error("interrupted response was cached")
	}
	if _, ok := s.cache.get([]byte("seed1")); !ok {
		t.Error("full-budget response was not cached")
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestOptimalCertificateRoundTrip pins the optimality-certificate wire
// contract: an EXACT-DP solve answers optimal=true through the
// synchronous endpoint, the flag survives the result cache and the async
// job poll, metaheuristic responses omit it, and an interrupted exact
// solve (best-so-far, unproven) never claims it.
func TestOptimalCertificateRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	inst, err := duedate.NewCDDInstance("optimal-cert",
		[]int{3, 1, 4, 2, 5, 2, 6}, []int{2, 1, 3, 2, 4, 1, 5}, []int{2, 1, 3, 2, 4, 1, 5}, 30)
	if err != nil {
		t.Fatal(err)
	}
	req := SolveRequest{
		Instance: inst, Algorithm: algp(duedate.ExactDP), Engine: duedate.EngineCPUSerial, Seed: 3,
	}
	status, body := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("exact solve: %d %s", status, body)
	}
	var first SolveResponse
	decodeInto(t, body, &first)
	if !first.Optimal || first.Cached || first.Interrupted {
		t.Fatalf("exact solve: optimal=%t cached=%t interrupted=%t (want certificate, fresh, complete)",
			first.Optimal, first.Cached, first.Interrupted)
	}
	if _, c, err := duedate.OptimizeSequence(inst, first.Sequence); err != nil || c != first.Cost {
		t.Fatalf("certificate cost %d dishonest (re-evaluated %d, err %v)", first.Cost, c, err)
	}

	// The certificate must survive the result cache verbatim.
	status, body = postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("cached solve: %d %s", status, body)
	}
	var second SolveResponse
	decodeInto(t, body, &second)
	if !second.Cached || !second.Optimal {
		t.Fatalf("cache hit: cached=%t optimal=%t (want both)", second.Cached, second.Optimal)
	}

	// And the async job poll (NoCache forces a real run through the pool).
	jreq := req
	jreq.NoCache = true
	jr := submitJob(t, ts, jreq)
	jv := waitJobTerminal(t, ts, jr.Job.ID)
	if jv.State != JobDone || jv.Result == nil {
		t.Fatalf("job ended %q with result %v", jv.State, jv.Result)
	}
	if !jv.Result.Optimal {
		t.Fatal("async exact result lost the optimality certificate")
	}
	if jv.Result.Cost != first.Cost {
		t.Fatalf("async certificate cost %d != sync %d", jv.Result.Cost, first.Cost)
	}

	// A metaheuristic on the same instance cannot prove optimality, even
	// when it reaches the same cost: the wire field stays absent.
	saReq := SolveRequest{
		Instance: inst, Algorithm: algp(duedate.SA), Engine: duedate.EngineCPUSerial,
		Iterations: 60, Grid: 1, Block: 8, Seed: 2, TempSamples: 50,
	}
	status, body = postJSON(t, ts.URL+"/v1/solve", saReq)
	if status != http.StatusOK {
		t.Fatalf("SA solve: %d %s", status, body)
	}
	if bytes.Contains(body, []byte(`"optimal"`)) {
		t.Fatalf("metaheuristic response carries an optimal field: %s", body)
	}

	// An interrupted exact run returns an honest best-so-far without the
	// certificate (and, as an interrupted result, is never cached).
	n := 400
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	var sum int64
	for i := 0; i < n; i++ {
		p[i] = 1 + i%20
		alpha[i] = 1 + i%10
		beta[i] = alpha[i]
		sum += int64(p[i])
	}
	big, err := duedate.NewCDDInstance("optimal-cert-big", p, alpha, beta, sum+10)
	if err != nil {
		t.Fatal(err)
	}
	ireq := SolveRequest{
		Instance: big, Algorithm: algp(duedate.ExactDP), Engine: duedate.EngineCPUSerial,
		Seed: 3, TimeoutMs: 1,
	}
	status, body = postJSON(t, ts.URL+"/v1/solve", ireq)
	if status != http.StatusOK {
		t.Fatalf("interrupted exact solve: %d %s", status, body)
	}
	var cut SolveResponse
	decodeInto(t, body, &cut)
	if !cut.Interrupted {
		t.Skip("DP finished inside the 1ms budget; nothing to assert")
	}
	if cut.Optimal {
		t.Fatal("interrupted exact run claimed an optimality certificate")
	}
	if len(cut.Sequence) != n || !problem.IsPermutation(cut.Sequence) {
		t.Fatalf("interrupted best-so-far is not a valid permutation")
	}
}

// agreeableTestCDD builds a small symmetric-weight CDD instance the
// exact DP provably solves, so AUTO's certificate route is observable
// through the wire.
func agreeableTestCDD(t *testing.T, n int) *duedate.Instance {
	t.Helper()
	p := make([]int, n)
	alpha := make([]int, n)
	beta := make([]int, n)
	var sum int64
	for i := range p {
		p[i] = 1 + (i*7)%13
		alpha[i] = 1 + (i*5)%7
		beta[i] = alpha[i]
		sum += int64(p[i])
	}
	in, err := duedate.NewCDDInstance("server-auto-agreeable", p, alpha, beta, sum+5)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestDefaultAlgorithmAppliesWhenUnspecified pins the request-default
// contract: with -algorithm auto configured, a body without "algorithm"
// routes through the AUTO portfolio driver (observable via the echoed
// algorithm and, on a DP-eligible small, the optimality certificate),
// while an explicit request algorithm always wins over the default.
func TestDefaultAlgorithmAppliesWhenUnspecified(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1, DefaultAlgorithm: duedate.Auto})
	in := agreeableTestCDD(t, 12)

	status, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Seed: 3})
	if status != http.StatusOK {
		t.Fatalf("unspecified-algorithm solve: %d %s", status, body)
	}
	var resp SolveResponse
	decodeInto(t, body, &resp)
	if resp.Algorithm != duedate.Auto {
		t.Fatalf("unspecified algorithm resolved to %v, want the configured AUTO default", resp.Algorithm)
	}
	if !resp.Optimal {
		t.Fatalf("AUTO on a DP-eligible small did not return the certificate: %s", body)
	}

	status, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Instance: in, Algorithm: algp(duedate.TA), Engine: duedate.EngineCPUSerial, Seed: 3,
	})
	if status != http.StatusOK {
		t.Fatalf("explicit-algorithm solve: %d %s", status, body)
	}
	resp = SolveResponse{}
	decodeInto(t, body, &resp)
	if resp.Algorithm != duedate.TA {
		t.Fatalf("explicit algorithm %v did not win over the configured default", resp.Algorithm)
	}

	// The async path resolves the same default.
	status, body = postJSON(t, ts.URL+"/v1/jobs", SolveRequest{Instance: in, Seed: 4})
	if status != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", status, body)
	}
	var sub JobSubmitResponse
	decodeInto(t, body, &sub)
	if sub.Job.Algorithm != duedate.Auto {
		t.Fatalf("job echoed algorithm %v, want the configured AUTO default", sub.Job.Algorithm)
	}
}

// TestAutoWireValue pins the "auto" wire spelling end to end on a
// default (SA-default) server: explicit AUTO requests solve and echo
// AUTO, and an unspecified algorithm still resolves to SA, byte-
// compatible with the pre-portfolio service.
func TestAutoWireValue(t *testing.T) {
	_, ts := newTestServer(t, Config{Pool: 1})
	in := agreeableTestCDD(t, 10)

	status, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Instance: in, Algorithm: algp(duedate.Auto), Seed: 2,
	})
	if status != http.StatusOK {
		t.Fatalf("AUTO solve: %d %s", status, body)
	}
	var resp SolveResponse
	decodeInto(t, body, &resp)
	if resp.Algorithm != duedate.Auto || !resp.Optimal {
		t.Fatalf("AUTO wire value mishandled: algorithm=%v optimal=%t", resp.Algorithm, resp.Optimal)
	}

	status, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Instance: in, Seed: 2})
	if status != http.StatusOK {
		t.Fatalf("default solve: %d %s", status, body)
	}
	resp = SolveResponse{}
	decodeInto(t, body, &resp)
	if resp.Algorithm != duedate.SA {
		t.Fatalf("unspecified algorithm on a default server resolved to %v, want SA", resp.Algorithm)
	}
}
