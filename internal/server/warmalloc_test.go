//go:build go1.24 && !race

// The pinned count is net/http's and encoding/json's as much as the
// server's: it was measured with Go 1.24, and the race detector's
// sync.Pool drops objects at random, so other builds leave it out.

package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
)

// warmHitAllocs is the allocation count of one warm hit through the
// handler, submit and result fetch together, recorders and requests
// included. Lower it when the path sheds an allocation.
const warmHitAllocs = 60

// TestWarmHitAllocs keeps the cache-hit path from growing back: one
// submit plus one result fetch of a primed job allocates no more than
// warmHitAllocs objects.
func TestWarmHitAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{Version: "test-allocs"})
	h := s.Handler()
	spec := Spec{Experiment: "worstcase", Quick: true}
	id := primeWarm(s, spec, bytes.Repeat([]byte{'x'}, 4<<10), false)
	body, _ := json.Marshal(spec)
	for i := 0; i < 10; i++ {
		if sub, res := warmHit(h, body, id); sub.Code != http.StatusOK || res.Code != http.StatusOK {
			t.Fatalf("warm hit = %d, %d; want 200, 200", sub.Code, res.Code)
		}
	}
	got := testing.AllocsPerRun(200, func() { warmHit(h, body, id) })
	t.Logf("warm hit: %.0f allocs", got)
	if got > warmHitAllocs {
		t.Errorf("warm hit allocates %.0f objects, want at most %d", got, warmHitAllocs)
	}
}
