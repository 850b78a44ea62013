package server

import (
	"encoding/json"
	"testing"
	"time"

	"xui/internal/experiments"
	"xui/internal/loadgen"
)

// TestLoadgenHotSpec is the serving acceptance path: 100+ concurrent
// closed-loop clients hammer one spec. The daemon computes it once,
// then answers the fleet from cache — every response a 200 or 202,
// zero errors, zero panics (a panic would kill the httptest process).
func TestLoadgenHotSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "load-a", QueueDepth: 8})

	spec := Spec{Experiment: "fig2", Quick: true}
	body, _ := json.Marshal(spec)
	opts := loadgen.DriveOptions{
		URL:      ts.URL,
		Clients:  120,
		Requests: 1200,
		Body:     body,
		Timeout:  30 * time.Second,
	}

	// Wave 1 races the computation: every response is a coherent 202
	// (or 200 if the job finishes mid-wave), nothing shed, no errors.
	rep, err := loadgen.Drive(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 1200 || rep.Errors != 0 {
		t.Fatalf("wave 1 report %+v, want 1200 submitted with 0 errors", rep)
	}
	if rep.Shed != 0 {
		t.Fatalf("hot-spec drive shed %d requests; idempotent dedup should absorb them", rep.Shed)
	}

	// Wave 2, after the job completes: the whole fleet is answered
	// 200 from cache without touching the executor.
	waitDone(t, ts, jobID("load-a", spec))
	rep, err = loadgen.Drive(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Done != 1200 || rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("wave 2 report %+v, want all 1200 served done from cache", rep)
	}
	if rep.LatencyUs.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	t.Logf("cached wave: %d clients, %.0f req/s, p50 %d us, p99 %d us",
		rep.Clients, rep.Throughput(), rep.LatencyUs.P50, rep.LatencyUs.P99)
}

// TestLoadgenOverloadSheds is the admission-control acceptance path:
// 100+ clients submitting all-distinct specs against a tiny queue and
// a deliberately slow executor. The daemon must shed with 429s (all
// carrying Retry-After), serve everything else coherently, and never
// panic.
func TestLoadgenOverloadSheds(t *testing.T) {
	// Registered before newTestServer so it runs after the server's
	// cleanup has stopped the executor (cleanups are LIFO): restoring
	// the seam while queued jobs still run would be a write race.
	t.Cleanup(func() { runExperiment = (*experiments.Env).RunJob })
	runExperiment = func(_ *experiments.Env, name string, quick bool) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return map[string]any{"ok": true}, nil
	}

	_, ts := newTestServer(t, Config{Version: "load-b", QueueDepth: 4})

	rep, err := loadgen.Drive(loadgen.DriveOptions{
		URL:      ts.URL,
		Clients:  120,
		Requests: 1200,
		BodyFor: func(client, i int) []byte {
			b, _ := json.Marshal(Spec{Experiment: "fig2", Quick: true,
				Seed: uint64(client)*1_000_000 + uint64(i)})
			return b
		},
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("drive saw %d errors: %+v", rep.Errors, rep)
	}
	if rep.Shed == 0 {
		t.Fatalf("overload drive was never shed: %+v", rep)
	}
	if rep.RetryAfterSeen != rep.Shed {
		t.Fatalf("%d of %d 429s missing Retry-After", rep.Shed-rep.RetryAfterSeen, rep.Shed)
	}
	if rep.Queued+rep.Done == 0 {
		t.Fatalf("nothing was ever admitted: %+v", rep)
	}
	t.Logf("overload: %d submitted, %d queued, %d done, %d shed, p99 %v us",
		rep.Submitted, rep.Queued, rep.Done, rep.Shed, rep.LatencyUs.P99)
}

// TestDriveValidation pins the option checks.
func TestDriveValidation(t *testing.T) {
	if _, err := loadgen.Drive(loadgen.DriveOptions{Clients: 0, Requests: 1}); err == nil {
		t.Error("zero clients accepted")
	}
	if _, err := loadgen.Drive(loadgen.DriveOptions{Clients: 1, Requests: 0}); err == nil {
		t.Error("zero requests accepted")
	}
}
