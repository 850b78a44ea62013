package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"xui/internal/experiments"
	"xui/internal/stats"
)

// TestLoadgenHotSpec is the serving acceptance path: 100+ concurrent
// closed-loop clients hammer one spec. The daemon computes it once,
// then answers the fleet from cache — every response a 200 or 202,
// zero errors, zero panics (a panic would kill the httptest process).
func TestLoadgenHotSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "load-a", QueueDepth: 8})

	spec := Spec{Experiment: "fig2", Quick: true}
	body, _ := json.Marshal(spec)
	hot := func(int, int) []byte { return body }

	// Wave 1 races the computation: every response is a coherent 202
	// (or 200 if the job finishes mid-wave), nothing shed, no errors.
	rep := drive(ts.URL, 120, 1200, hot)
	if rep.Submitted != 1200 || rep.Errors != 0 {
		t.Fatalf("wave 1 report %+v, want 1200 submitted with 0 errors", rep)
	}
	if rep.Shed != 0 {
		t.Fatalf("hot-spec drive shed %d requests; idempotent dedup should absorb them", rep.Shed)
	}

	// Wave 2, after the job completes: the whole fleet is answered
	// 200 from cache without touching the executor.
	waitDone(t, ts, jobID("load-a", spec))
	rep = drive(ts.URL, 120, 1200, hot)
	if rep.Done != 1200 || rep.Errors != 0 || rep.Shed != 0 {
		t.Fatalf("wave 2 report %+v, want all 1200 served done from cache", rep)
	}
	if rep.LatencyUs.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	t.Logf("cached wave: %.0f req/s, p50 %d us, p99 %d us",
		float64(rep.Submitted)/rep.Wall.Seconds(), rep.LatencyUs.P50, rep.LatencyUs.P99)
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

	// Distinct seeds defeat the daemon's idempotent dedup, which is how
	// the drive actually fills the queue.
	rep := drive(ts.URL, 120, 1200, func(client, i int) []byte {
		b, _ := json.Marshal(Spec{Experiment: "fig2", Quick: true,
			Seed: uint64(client)*1_000_000 + uint64(i)})
		return b
	})
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

// driveReport is the outcome of one drive: Submitted counts requests
// sent, and Done (200), Queued (202), Shed (429) and Errors (transport
// failures and any other status) partition the responses.
type driveReport struct {
	Submitted, Done, Queued, Shed, Errors uint64
	// RetryAfterSeen counts 429s that carried a Retry-After header (the
	// admission-control contract says all of them must).
	RetryAfterSeen uint64
	// LatencyUs summarises per-request wall latency in microseconds.
	LatencyUs stats.Summary
	Wall      time.Duration
}

// drive runs a closed-loop load test: the given number of client
// goroutines split the requests between them and each POSTs its share
// back to back, body(client, i) being that client's i'th job spec.
// Closed loop holds concurrency constant rather than offered rate, so
// every shed request is replaced at once by the client's next one,
// keeping the daemon at its high-water mark.
func drive(url string, clients, requests int, body func(client, i int) []byte) driveReport {
	hc := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: clients},
	}
	var (
		mu   sync.Mutex
		rep  driveReport
		hist = stats.NewHistogram()
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		// The first requests%clients clients take one extra.
		n := requests / clients
		if c < requests%clients {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			var local driveReport
			lat := stats.NewHistogram()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				resp, err := hc.Post(url+"/api/v1/jobs", "application/json", bytes.NewReader(body(c, i)))
				local.Submitted++
				if err != nil {
					local.Errors++
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat.Record(uint64(time.Since(t0).Microseconds()))
				switch resp.StatusCode {
				case http.StatusOK:
					local.Done++
				case http.StatusAccepted:
					local.Queued++
				case http.StatusTooManyRequests:
					local.Shed++
					if resp.Header.Get("Retry-After") != "" {
						local.RetryAfterSeen++
					}
				default:
					local.Errors++
				}
			}
			mu.Lock()
			rep.Submitted += local.Submitted
			rep.Done += local.Done
			rep.Queued += local.Queued
			rep.Shed += local.Shed
			rep.Errors += local.Errors
			rep.RetryAfterSeen += local.RetryAfterSeen
			hist.Merge(lat)
			mu.Unlock()
		}(c, n)
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	rep.LatencyUs = hist.Summarize()
	return rep
}
