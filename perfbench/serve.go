package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	duedate "repro"
	"repro/internal/server"
)

// serveClients is the number of closed-loop keep-alive clients; it stays
// at the 2 cores the benchmark was sized on.
const serveClients = 2

// serveLimit is the latency limit behind slo_frac on the serve mix.
const serveLimit = 50 * time.Millisecond

// Headers the traced run uses to pair a client request with the handler
// time measured around Server.ServeHTTP.
const (
	hdrOp   = "X-Bench-Op"
	hdrSpan = "X-Bench-Span"
)

// serveWorkload is the daemon under a hot/cold request mix: hot requests
// repeat, byte for byte, small SA solves warmed during setup (wire-cache
// hits); cold requests are never-repeated EARLYWORK instances under AUTO,
// which answers them with the exact DP (the write path).
type serveWorkload struct {
	seed      uint64
	cdd       []*duedate.Instance
	cddRefs   []refEntry
	bases     []*duedate.Instance
	coldRefs  []refEntry
	cycle     []serveOp
	hot       [][]byte // request bodies
	hotInst   []int    // CDD instance index of each hot request
	hotFirst  [][]byte // the first (solved) answer to each hot request
	hotReplay [][]byte // the first cached answer: every later one must equal it

	srv  *server.Server
	ts   *httptest.Server
	hnd  *timedHandler
	minN int
	// issued counts the requests of earlier runs on this server; a run
	// continues the request numbering, so no cold request repeats.
	issued int
}

// timedHandler wraps Server.ServeHTTP. When tracing it records the
// handler time of every request that names its op.
type timedHandler struct {
	srv *server.Server
	tr  *tracer
	mu  sync.Mutex
	ns  map[int64]int64 // op → handler ns
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.tr == nil {
		h.srv.ServeHTTP(w, r)
		return
	}
	op, err := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
	if err != nil {
		h.srv.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	start := time.Now()
	h.srv.ServeHTTP(w, r)
	end := time.Now()
	h.tr.record(parent, op, "server.ServeHTTP", start, end, 0)
	h.mu.Lock()
	h.ns[op] = int64(end.Sub(start))
	h.mu.Unlock()
}

// serveMinOps keeps p99 reportable (minTail samples beyond it) and
// covers at least one serve cycle.
func serveMinOps() int { return max(minSamples(0.99), serveCycle) }

// newServeWorkload generates the inputs, starts the daemon behind a
// loopback listener and warms every hot request.
func newServeWorkload(seed uint64, rs *refSet) (*serveWorkload, error) {
	set := setOf(seed)
	w := &serveWorkload{
		seed:     seed,
		cdd:      genCDD(set),
		cddRefs:  rs.CDD[set-1],
		bases:    genColdBases(set),
		coldRefs: rs.Cold[set-1],
		cycle:    serveCycleOps(seed),
		minN:     serveMinOps(),
	}
	w.hot, w.hotInst = hotBodies(seed, w.cdd)
	w.srv = server.New(server.Config{})
	w.hnd = &timedHandler{srv: w.srv}
	w.ts = httptest.NewServer(w.hnd)
	c := w.ts.Client()
	for _, b := range w.hot {
		first, err := post(c, w.ts.URL, b)
		if err != nil {
			w.close()
			return nil, err
		}
		replay, err := post(c, w.ts.URL, b)
		if err != nil {
			w.close()
			return nil, err
		}
		w.hotFirst = append(w.hotFirst, first)
		w.hotReplay = append(w.hotReplay, replay)
	}
	c.CloseIdleConnections()
	return w, nil
}

// post sends one solve request and returns the 200 body.
func post(c *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := c.Post(url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// close stops the listener, then drains the worker pool. Every request
// has been answered by then, so the drain has nothing left to wait for
// and its error has nothing to report.
func (w *serveWorkload) close() {
	w.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.srv.Drain(ctx)
}

// serveResult is one completed request.
type serveResult struct {
	k       int
	lat     time.Duration
	status  int
	err     error
	hotOK   bool       // hot: body equals the first cached answer
	cold    coldAnswer // cold: the decoded answer
	coldErr error      // cold: the answer failed checkAnswer
	handler int64      // traced: handler ns
}

type serveRun struct {
	res          []serveResult // in request order
	wall         time.Duration
	opsPerS      float64       // median over serveWindow windows
	cpuPerOp     time.Duration // median over serveWindow windows
	hits, misses int64
	err          error // reading the cache counters failed
}

// serveWindow is the sampling period of the serve loop: about 1400
// requests.
const serveWindow = time.Second

// run drives the closed loop until the duration has passed and at least
// minN requests completed, or — when count > 0 — exactly count requests.
// Requests are claimed from one shared counter, so the completed ones are
// always consecutive in the request numbering.
func (w *serveWorkload) run(dur time.Duration, count int, tr *tracer) serveRun {
	w.hnd.tr = tr
	if tr != nil {
		w.hnd.ns = map[int64]int64{}
	}
	var r serveRun
	h0, m0, err0 := w.cacheCounters()
	var next atomic.Int64
	parts := make([][]serveResult, serveClients)
	var wg sync.WaitGroup
	smp := startSampler(serveWindow)
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			var scratch server.SolveResponse
			for {
				i := int(next.Add(1) - 1)
				if count > 0 && i >= count || count == 0 && i >= w.minN && time.Since(start) >= dur {
					return
				}
				parts[c] = append(parts[c], w.request(client, &buf, &scratch, w.issued+i, tr))
				smp.done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(start)
	r.opsPerS, r.cpuPerOp = smp.finish()
	h1, m1, err1 := w.cacheCounters()
	r.hits, r.misses, r.err = h1-h0, m1-m0, errors.Join(err0, err1)
	for _, p := range parts {
		r.res = append(r.res, p...)
	}
	sort.Slice(r.res, func(i, j int) bool { return r.res[i].k < r.res[j].k })
	w.issued += len(r.res)
	if tr != nil {
		for i := range r.res {
			r.res[i].handler = w.hnd.ns[int64(r.res[i].k)]
		}
	}
	w.hnd.tr = nil
	return r
}

// request sends op k and times it from the send to the last body byte.
// Building the request and checking the answer happen outside that
// interval. A cold answer is checked here rather than kept for later, so
// the benchmark's memory does not grow with the number of requests a run
// completes.
func (w *serveWorkload) request(c *http.Client, buf *bytes.Buffer, scratch *server.SolveResponse, k int, tr *tracer) serveResult {
	op := w.cycle[k%serveCycle]
	var body []byte
	var in *duedate.Instance
	if op.Hot >= 0 {
		body = w.hot[op.Hot]
	} else {
		in = coldInstance(w.seed, k, w.bases[op.Cold])
		body = coldBody(in)
	}
	req, err := http.NewRequest(http.MethodPost, w.ts.URL+"/v1/solve", bytes.NewReader(body))
	must(err)
	req.Header.Set("Content-Type", "application/json")
	res := serveResult{k: k}
	span := tr.id()
	if tr != nil {
		req.Header.Set(hdrOp, strconv.Itoa(k))
		req.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
	}
	start := time.Now()
	resp, err := c.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		res.status = resp.StatusCode
	}
	end := time.Now()
	res.lat, res.err = end.Sub(start), err
	tr.add(span, 0, int64(k), "http.client", start, end, 0)
	switch {
	case res.err != nil || res.status != http.StatusOK:
	case op.Hot >= 0:
		res.hotOK = bytes.Equal(buf.Bytes(), w.hotReplay[op.Hot])
	default:
		// Unmarshal leaves absent fields alone, so start from zero; the
		// sequence keeps its backing array.
		*scratch = server.SolveResponse{Sequence: scratch.Sequence[:0]}
		if res.coldErr = json.Unmarshal(buf.Bytes(), scratch); res.coldErr == nil {
			res.coldErr = checkAnswer(in, scratch.Sequence, scratch.Cost)
		}
		res.cold = coldAnswer{cost: scratch.Cost, optimal: scratch.Optimal, elapsedNs: scratch.ElapsedNs}
	}
	return res
}

// cacheCounters reads the cache hit and miss counters from /metrics.
func (w *serveWorkload) cacheCounters() (hits, misses int64, err error) {
	resp, err := w.ts.Client().Get(w.ts.URL + "/metrics")
	if err != nil {
		return 0, 0, fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return 0, 0, fmt.Errorf("GET /metrics: %w", err)
	}
	return m.Server.CacheHits, m.Server.CacheMisses, nil
}

// coldAnswer is the decoded answer to a cold request.
type coldAnswer struct {
	cost      int64
	optimal   bool
	elapsedNs int64
}

// serveVerdict is the outcome of checking a serve run.
type serveVerdict struct {
	failed  int
	err     error              // the first failure
	cold    map[int]coldAnswer // by request number
	hotCost []int64            // by hot request
}

// verify completes the checks of every answer. Hot answers must equal
// the first cached answer byte for byte, and that answer must carry the
// same solution as the solved one, a valid genome at its exact cost. Cold
// answers, already checked to be valid genomes at their exact cost, must
// equal the DP optimum of their base instance when they claim optimality.
func (w *serveWorkload) verify(r serveRun) serveVerdict {
	v := serveVerdict{cold: map[int]coldAnswer{}, hotCost: make([]int64, len(w.hot))}
	fail := func(k int, err error) {
		v.failed++
		if v.err == nil {
			v.err = fmt.Errorf("%s request %d: %w", wlServe, k, err)
		}
	}
	hotBad := make([]error, len(w.hot))
	for h := range w.hot {
		var first, replay server.SolveResponse
		if err := json.Unmarshal(w.hotFirst[h], &first); err != nil {
			hotBad[h] = err
			continue
		}
		if err := json.Unmarshal(w.hotReplay[h], &replay); err != nil {
			hotBad[h] = err
			continue
		}
		v.hotCost[h] = first.Cost
		in := w.cdd[w.hotInst[h]]
		switch {
		case !replay.Cached:
			hotBad[h] = fmt.Errorf("hot request %d: replay was not served from the cache", h)
		case replay.Cost != first.Cost || !equalInts(replay.Sequence, first.Sequence):
			hotBad[h] = fmt.Errorf("hot request %d: cached answer differs from the solved one", h)
		default:
			hotBad[h] = checkAnswer(in, first.Sequence, first.Cost)
		}
	}
	for _, res := range r.res {
		if res.err != nil {
			fail(res.k, res.err)
			continue
		}
		if res.status != http.StatusOK {
			fail(res.k, fmt.Errorf("status %d", res.status))
			continue
		}
		op := w.cycle[res.k%serveCycle]
		if op.Hot >= 0 {
			if hotBad[op.Hot] != nil {
				fail(res.k, hotBad[op.Hot])
			} else if !res.hotOK {
				fail(res.k, fmt.Errorf("hot answer differs from the first cached answer"))
			}
			continue
		}
		if res.coldErr != nil {
			fail(res.k, res.coldErr)
			continue
		}
		ref := w.coldRefs[op.Cold]
		if a := res.cold; a.optimal && (!ref.DP || a.cost != ref.Cost) {
			fail(res.k, fmt.Errorf("optimal answer %d, DP optimum %d", a.cost, ref.Cost))
			continue
		}
		v.cold[res.k] = res.cold
	}
	if err := checkRefs(w.cddRefs, w.cdd); err != nil {
		fail(0, err)
	}
	if err := checkRefs(w.coldRefs, w.bases); err != nil {
		fail(0, err)
	}
	v.err = errors.Join(v.err, r.err)
	return v
}

// firstCycle is the number of leading requests of a run the exact-repeat
// metrics are computed over: one whole cycle, or a whole number of
// strides in a shorter (probe) run. Any that many consecutive requests
// hold the same mix.
func firstCycle(n int) int {
	if n >= serveCycle {
		return serveCycle
	}
	return n - n%serveStride
}

// qualityAndOptimal are the mean gap and the share of optimal answers
// over the first cycle.
func (w *serveWorkload) qualityAndOptimal(r serveRun, v serveVerdict) (gap, optimal float64) {
	n := firstCycle(len(r.res))
	gaps := make([]float64, 0, n)
	opt := 0
	for _, res := range r.res[:n] {
		k := res.k
		op := w.cycle[k%serveCycle]
		if op.Hot >= 0 {
			gaps = append(gaps, gapPct(v.hotCost[op.Hot], w.cddRefs[w.hotInst[op.Hot]].Cost))
			continue
		}
		a := v.cold[k]
		gaps = append(gaps, gapPct(a.cost, w.coldRefs[op.Cold].Cost))
		if a.optimal {
			opt++
		}
	}
	return mean(gaps), float64(opt) / float64(n)
}

func (w *serveWorkload) endToEnd(r serveRun, v serveVerdict) metrics {
	n := len(r.res)
	lat := make([]float64, n)
	within := 0
	for i, res := range r.res {
		lat[i] = ms(res.lat)
		if res.err == nil && res.status == http.StatusOK && res.lat <= serveLimit {
			within++
		}
	}
	gap, _ := w.qualityAndOptimal(r, v)
	m := metrics{}
	m.set("throughput_ops_s", r.opsPerS, "1/s")
	m.setTail("latency_ms_p95", lat, 0.95)
	m.setTail("latency_ms_tail", lat, 0.99)
	m.set("latency_ms_p50", median(lat), "ms")
	m.set("cpu_ms_per_op", ms(r.cpuPerOp), "ms")
	m.set("slo_frac", float64(within)/float64(n), "1")
	m.set("quality_gap_pct", gap, "%")
	m.set("success_frac", float64(n-v.failed)/float64(n), "1")
	return m
}
