package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	duedate "repro"
	"repro/internal/problem"
)

// instantSolve is a solveFunc stub that answers immediately with a valid
// fixed result, so the serve-path tests and benchmarks time the HTTP
// layer rather than an engine.
func instantSolve(ctx context.Context, in *problem.Instance, opts duedate.Options) (duedate.Result, error) {
	return duedate.Result{BestSeq: problem.IdentitySequence(in.N()), BestCost: 1, Iterations: opts.Iterations}, nil
}

// TestWireCacheLRUAndOversize pins the wire cache: capacity 2 evicts the
// least recently used request bytes, oversize keys bypass it in both
// directions, and a disabled cache never stores.
func TestWireCacheLRUAndOversize(t *testing.T) {
	s := New(Config{Pool: 1, CacheSize: 2})
	defer s.Drain(context.Background())
	s.wire.put([]byte("a"), []byte("ra"))
	s.wire.put([]byte("b"), []byte("rb"))
	if got, ok := s.wire.get([]byte("a")); !ok || string(got) != "ra" {
		t.Fatalf("get a = %q, %v", got, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	s.wire.put([]byte("c"), []byte("rc"))
	if _, ok := s.wire.get([]byte("b")); ok {
		t.Error("b survived eviction")
	}
	if _, ok := s.wire.get([]byte("a")); !ok {
		t.Error("a was evicted despite being most recently used")
	}
	if s.wire.len() != 2 {
		t.Errorf("len = %d, want 2", s.wire.len())
	}
	// Oversize keys bypass the cache in both directions.
	huge := make([]byte, wireMaxKeyBytes+1)
	s.wirePut(huge, &SolveResponse{Instance: "x"})
	if _, ok := s.wire.get(huge); ok {
		t.Error("oversize key was stored")
	}
	s.wire.put(huge, []byte("r")) // behind the call site's back
	if s.wireHit(httptest.NewRecorder(), huge) {
		t.Error("oversize key was looked up")
	}
	s.wirePut([]byte("small"), &SolveResponse{Instance: "x"})
	if !s.wireHit(httptest.NewRecorder(), []byte("small")) {
		t.Error("indexable key missed after wirePut")
	}
	// Disabled cache never stores.
	off := New(Config{Pool: 1, CacheSize: -1})
	defer off.Drain(context.Background())
	off.wire.put([]byte("k"), []byte("v"))
	if _, ok := off.wire.get([]byte("k")); ok {
		t.Error("disabled wire cache served a hit")
	}
}

// TestWireHitServesCachedBytes pins the steady-state contract: an exact
// byte-level resubmission is answered from the wire cache with a body
// identical to what a result-cache hit would produce, and counts as a
// cache hit in /metrics.
func TestWireHitServesCachedBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 1})
	s.solve = instantSolve
	req := SolveRequest{
		Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.SA),
		Engine: duedate.EngineCPUSerial, Iterations: 5, Seed: 3,
	}
	status, body1 := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("first solve: %d %s", status, body1)
	}
	if s.wire.len() != 1 {
		t.Fatalf("wire cache holds %d entries after first solve, want 1", s.wire.len())
	}
	status, body2 := postJSON(t, ts.URL+"/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("resubmission: %d %s", status, body2)
	}
	var first, second SolveResponse
	decodeInto(t, body1, &first)
	decodeInto(t, body2, &second)
	if !second.Cached {
		t.Error("wire hit did not report cached")
	}
	second.Cached = false
	if fmt.Sprintf("%+v", first) != fmt.Sprintf("%+v", second) {
		t.Errorf("wire-cached response differs:\nfirst  %+v\nsecond %+v", first, second)
	}
	if hits := s.stats.cacheHits.Load(); hits != 1 {
		t.Errorf("cacheHits = %d after wire hit, want 1", hits)
	}
	// noCache bodies are different bytes and must never be stored.
	req.NoCache = true
	if status, _ := postJSON(t, ts.URL+"/v1/solve", req); status != http.StatusOK {
		t.Fatalf("noCache solve: %d", status)
	}
	if s.wire.len() != 1 {
		t.Errorf("noCache request entered the wire cache (len %d, want 1)", s.wire.len())
	}
}

// TestWireHitBatch pins the batch analogue: an identical batch
// resubmission is served from the wire layer with every slot marked
// cached, and a batch containing a noCache job is never stored.
func TestWireHitBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{Pool: 2})
	s.solve = instantSolve
	batch := BatchRequest{Requests: []SolveRequest{
		{Instance: duedate.PaperExample(duedate.CDD), Engine: duedate.EngineCPUSerial, Iterations: 5, Seed: 1},
		{Instance: duedate.PaperExample(duedate.UCDDCP), Engine: duedate.EngineCPUSerial, Iterations: 5, Seed: 2},
	}}
	status, _ := postJSON(t, ts.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("first batch: %d", status)
	}
	if s.wire.len() != 1 {
		t.Fatalf("wire cache holds %d entries after clean batch, want 1", s.wire.len())
	}
	status, body := postJSON(t, ts.URL+"/v1/batch", batch)
	if status != http.StatusOK {
		t.Fatalf("batch resubmission: %d", status)
	}
	var resp BatchResponse
	decodeInto(t, body, &resp)
	if len(resp.Results) != 2 {
		t.Fatalf("batch returned %d results, want 2", len(resp.Results))
	}
	for i, r := range resp.Results {
		if r.Status != http.StatusOK || r.Response == nil || !r.Response.Cached {
			t.Errorf("slot %d: status %d cached %v, want 200/cached", i, r.Status, r.Response != nil && r.Response.Cached)
		}
	}
	// A batch with a noCache slot must not be stored.
	batch.Requests[0].NoCache = true
	if status, _ := postJSON(t, ts.URL+"/v1/batch", batch); status != http.StatusOK {
		t.Fatalf("noCache batch: %d", status)
	}
	if s.wire.len() != 1 {
		t.Errorf("noCache batch entered the wire cache (len %d, want 1)", s.wire.len())
	}
}

// TestReadBodyTooLarge pins the oversized-body rejection the manual read
// loop inherited from http.MaxBytesReader.
func TestReadBodyTooLarge(t *testing.T) {
	s := New(Config{Pool: 1})
	defer s.Drain(context.Background())
	r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(make([]byte, maxBodyBytes+1)))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("oversized body answered %d, want 400", w.Code)
	}
}

// nullWriter is an http.ResponseWriter whose header map persists across
// requests, modelling the reused response state of a keep-alive
// connection; writes are discarded.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// reusableBody adapts a resettable bytes.Reader as a request body.
type reusableBody struct{ *bytes.Reader }

func (reusableBody) Close() error { return nil }

// benchServeAllocs drives b.N identical requests through ServeHTTP after
// one priming request, so every timed iteration is the steady-state wire
// path. The allocs/op this reports is the number the CI guard
// (scripts/serve-allocs-guard.sh) holds at or below the checked-in
// threshold.
func benchServeAllocs(b *testing.B, path string, payload any) {
	s := New(Config{Pool: 1})
	defer s.Drain(context.Background())
	s.solve = instantSolve
	body, err := json.Marshal(payload)
	if err != nil {
		b.Fatal(err)
	}
	rd := bytes.NewReader(body)
	r := httptest.NewRequest(http.MethodPost, path, nil)
	r.Body = reusableBody{rd}
	w := &nullWriter{h: make(http.Header)}
	// Prime: the first request solves and stores the wire entry.
	s.ServeHTTP(w, r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		s.ServeHTTP(w, r)
	}
}

func BenchmarkServeSolveAllocs(b *testing.B) {
	benchServeAllocs(b, "/v1/solve", SolveRequest{
		Instance: duedate.PaperExample(duedate.CDD), Algorithm: algp(duedate.SA),
		Engine: duedate.EngineCPUSerial, Iterations: 5, Seed: 1,
	})
}

func BenchmarkServeBatchAllocs(b *testing.B) {
	benchServeAllocs(b, "/v1/batch", BatchRequest{Requests: []SolveRequest{
		{Instance: duedate.PaperExample(duedate.CDD), Engine: duedate.EngineCPUSerial, Iterations: 5, Seed: 1},
		{Instance: duedate.PaperExample(duedate.UCDDCP), Engine: duedate.EngineCPUSerial, Iterations: 5, Seed: 2},
	}})
}
