package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync"
)

// This file is the zero-allocation serve path: a wire-level cache of
// fully encoded response bodies keyed by the raw request bytes, plus the
// sync.Pools that recycle every per-request buffer the handlers would
// otherwise allocate. On a steady-state resubmission the solve handler
// reads the body into a pooled buffer, looks the bytes up (an
// allocation-free map probe), and writes the stored response — no JSON
// decode, no cache-key formatting, no encode. The stored bytes are the
// exact writeJSON encoding of the response with Cached set, so clients
// cannot distinguish a wire hit from a result-cache hit.
//
// Ownership rules: pooled buffers are returned by the handler that got
// them, always via defer, after the response is written. SolveResponse
// values are never pooled — the result cache retains them indefinitely,
// so recycling one would corrupt cached entries. Wire-cache entries own
// their key and body copies and are immutable once stored.

// wireMaxKeyBytes bounds the request bodies the wire cache will index;
// larger bodies (huge batches) skip the wire layer in both directions
// and take the normal decode path, keeping the cache's memory footprint
// proportional to its entry bound.
const wireMaxKeyBytes = 64 << 10

// wireHit answers the request from the wire cache when its exact bytes
// were answered before, writing the stored body and counting a cache
// hit. The wire cache only holds complete (status-200, uninterrupted,
// cache-eligible) responses, and deterministic solves guarantee a
// stored body never goes stale.
func (s *Server) wireHit(w http.ResponseWriter, body []byte) bool {
	if len(body) > wireMaxKeyBytes {
		return false
	}
	enc, ok := s.wire.get(body)
	if !ok {
		return false
	}
	s.stats.cacheHits.Add(1)
	writeRaw(w, http.StatusOK, enc)
	return true
}

// wirePut stores v, encoded exactly as writeJSON renders it, under the
// raw request bytes. Oversize bodies are neither encoded nor stored.
func (s *Server) wirePut(body []byte, v any) {
	if len(body) <= wireMaxKeyBytes {
		s.wire.put(body, encodeJSON(v))
	}
}

// bodyBuf is a pooled request-body buffer.
type bodyBuf struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return &bodyBuf{b: make([]byte, 0, 4096)} }}

// errBodyTooLarge mirrors http.MaxBytesReader's refusal; the handlers
// map it to 400 exactly as the old decoder path did.
var errBodyTooLarge = errors.New("http: request body too large")

// readBody reads r's body into buf (reusing its backing array),
// enforcing maxBodyBytes. On success buf.b holds the full body.
func readBody(r *http.Request, buf *bodyBuf) error {
	b := buf.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		m, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		buf.b = b
		if len(b) > maxBodyBytes {
			return errBodyTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// Pooled request/response carriers of the decode (wire-miss) path. Each
// is zeroed on the way back into its pool so stale fields can never leak
// into a later request's decode.

var solveReqPool = sync.Pool{New: func() any { return new(SolveRequest) }}

func putSolveRequest(req *SolveRequest) {
	*req = SolveRequest{}
	solveReqPool.Put(req)
}

var batchReqPool = sync.Pool{New: func() any { return new(BatchRequest) }}

// getBatchRequest returns a decode-ready batch request: the Requests
// backing array is retained for reuse but cleared first, because
// encoding/json appends into existing backing storage without zeroing,
// so absent fields would otherwise inherit a previous request's values.
func getBatchRequest() *BatchRequest {
	b := batchReqPool.Get().(*BatchRequest)
	reqs := b.Requests[:cap(b.Requests)]
	clear(reqs)
	b.Requests = reqs[:0]
	return b
}

func putBatchRequest(b *BatchRequest) { batchReqPool.Put(b) }

// batchResults is a pooled BatchResult slice (the per-slot response
// array the batch handler previously allocated per request).
type batchResults struct{ rs []BatchResult }

var batchResultsPool = sync.Pool{New: func() any { return new(batchResults) }}

// getBatchResults returns a zeroed length-n result slice.
func getBatchResults(n int) *batchResults {
	br := batchResultsPool.Get().(*batchResults)
	if cap(br.rs) < n {
		br.rs = make([]BatchResult, n)
	} else {
		br.rs = br.rs[:n]
		clear(br.rs)
	}
	return br
}

// putBatchResults clears the full capacity (dropping the *SolveResponse
// pointers so pooling never pins responses) and recycles the slice.
func putBatchResults(br *batchResults) {
	clear(br.rs[:cap(br.rs)])
	batchResultsPool.Put(br)
}

// taskPool recycles the admission-queue carriers, including their done
// channels: a submitted task receives exactly one send and one receive,
// so a drained channel can carry the next request.
var taskPool = sync.Pool{New: func() any { return &task{done: make(chan taskResult, 1)} }}

func getTask() *task { return taskPool.Get().(*task) }

func putTask(t *task) {
	*t = task{done: t.done}
	taskPool.Put(t)
}

// encodeJSON renders v exactly as writeJSON does (two-space indent,
// trailing newline), returning the bytes for wire-cache storage.
func encodeJSON(v any) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return b.Bytes()
}
