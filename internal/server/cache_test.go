package server

import (
	"context"
	"testing"

	duedate "repro"
)

// TestLRU table-tests the one LRU type through both of the server's
// instances — responses keyed by the result-cache key, encoded bodies
// keyed by the raw request bytes — beyond the basic bound pinned by
// TestCacheLRUEviction and TestWireCacheLRUAndOversize: eviction order,
// replacement, both caches disabled, and a hit being a copy marked
// cached.
func TestLRU(t *testing.T) {
	k := func(s string) []byte { return []byte(s) }
	resp := func(name string) *SolveResponse { return &SolveResponse{Instance: name} }
	cases := []struct {
		name string
		size int // Config.CacheSize; negative disables both caches
		run  func(t *testing.T, s *Server)
	}{
		{"eviction-order", 3, func(t *testing.T, s *Server) {
			for _, key := range []string{"a", "b", "c", "d", "e"} {
				s.wire.put(k(key), k("r"+key))
			}
			// Oldest first: a and b are gone, c is now least recent.
			for _, key := range []string{"a", "b"} {
				if _, ok := s.wire.get(k(key)); ok {
					t.Errorf("%s survived past capacity", key)
				}
			}
			s.wire.put(k("f"), k("rf"))
			if _, ok := s.wire.get(k("c")); ok {
				t.Error("least recently used entry c survived")
			}
			for _, key := range []string{"d", "e", "f"} {
				if got, ok := s.wire.get(k(key)); !ok || string(got) != "r"+key {
					t.Errorf("get %s = %q, %v", key, got, ok)
				}
			}
		}},
		{"len", 2, func(t *testing.T, s *Server) {
			s.cache.put(k("a"), resp("a"))
			s.cache.put(k("a"), resp("a2")) // replaces, does not grow
			if n := s.cache.len(); n != 1 {
				t.Errorf("len %d after storing one key twice, want 1", n)
			}
			if got, _ := s.cache.get(k("a")); got == nil || got.Instance != "a2" {
				t.Errorf("re-put did not replace the value: %v", got)
			}
			s.cache.put(k("b"), resp("b"))
			s.cache.put(k("c"), resp("c"))
			if n := s.cache.len(); n != 2 {
				t.Errorf("len %d past capacity, want 2", n)
			}
		}},
		{"disabled", -1, func(t *testing.T, s *Server) {
			s.cache.put(k("a"), resp("a"))
			s.wire.put(k("a"), k("ra"))
			if _, ok := s.cache.get(k("a")); ok {
				t.Error("disabled result cache served a hit")
			}
			if _, ok := s.wire.get(k("a")); ok {
				t.Error("disabled wire cache served a hit")
			}
			if s.cache.len() != 0 || s.wire.len() != 0 {
				t.Errorf("disabled caches hold %d / %d entries", s.cache.len(), s.wire.len())
			}
		}},
		{"hit-is-cached-copy", 2, func(t *testing.T, s *Server) {
			stored := &SolveResponse{Instance: "first", Algorithm: duedate.Auto, Engine: duedate.EngineGPU, Cost: 7}
			s.cache.put(k("key"), stored)
			in := duedate.PaperExample(duedate.CDD)
			in.Name = "second"
			req := &SolveRequest{Instance: in, Algorithm: algp(duedate.Auto), Engine: duedate.EngineCPUSerial}
			got, ok := s.cachedFor(req, k("key"))
			if !ok || !got.Cached || got.Cost != 7 {
				t.Fatalf("hit %+v, %v (want a cached copy of cost 7)", got, ok)
			}
			if got.Instance != "second" || got.Algorithm != duedate.Auto || got.Engine != duedate.EngineCPUSerial {
				t.Errorf("hit echoes %s %v/%v (want the request's second AUTO/cpu-serial)", got.Instance, got.Algorithm, got.Engine)
			}
			if stored.Cached || stored.Instance != "first" || stored.Engine != duedate.EngineGPU {
				t.Errorf("hit mutated the stored response: %+v", stored)
			}
			req.NoCache = true
			if _, ok := s.cachedFor(req, k("key")); ok {
				t.Error("noCache request was served from the cache")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{Pool: 1, CacheSize: tc.size})
			defer s.Drain(context.Background())
			tc.run(t, s)
		})
	}
}
