package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xui/internal/experiments"
	"xui/internal/obs"
	"xui/internal/runcache"
)

// newTestServer builds a Server plus an httptest front end. A Server
// installs the process-wide persistent cache tier, so tests must run one
// at a time and Close it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		runcache.ResetAll()
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec Spec) (int, view, http.Header) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v view
	json.NewDecoder(resp.Body).Decode(&v)
	return resp.StatusCode, v, resp.Header
}

// waitDone polls the status endpoint until the job leaves the
// queued/running states.
func waitDone(t *testing.T, ts *httptest.Server, id string) view {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v view
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if v.Status == statusDone || v.Status == statusFailed {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job never finished")
	return view{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestSubmitLifecycle drives the happy path over real HTTP: submit,
// status, result, and the canonical-document shape of the body.
func TestSubmitLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "test-a"})

	code, v, _ := submit(t, ts, Spec{Experiment: "worstcase", Quick: true})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	if v.ID == "" || v.Status != statusQueued {
		t.Fatalf("submit view = %+v", v)
	}

	done := waitDone(t, ts, v.ID)
	if done.Status != statusDone || done.Cached {
		t.Fatalf("final view = %+v, want uncached done", done)
	}
	if done.Progress.Done == 0 || done.Progress.Done != done.Progress.Total {
		t.Fatalf("progress = %+v, want complete and nonzero", done.Progress)
	}

	code, body := getResult(t, ts, v.ID)
	if code != http.StatusOK {
		t.Fatalf("result = %d, want 200", code)
	}
	var doc struct {
		Schema     string         `json:"schema"`
		Cmd        string         `json:"cmd"`
		Experiment string         `json:"experiment"`
		Results    map[string]any `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("result body is not JSON: %v", err)
	}
	if doc.Cmd != "xuiserve" || doc.Experiment != "worstcase" || doc.Results["worstcase"] == nil {
		t.Fatalf("result doc = %+v", doc)
	}

	// Resubmitting the same spec is idempotent: answered done, cached.
	code, v2, _ := submit(t, ts, Spec{Experiment: "worstcase", Quick: true})
	if code != http.StatusOK || v2.ID != v.ID {
		t.Fatalf("resubmit = %d %+v, want 200 with same id", code, v2)
	}
}

// TestSubmitValidation: unknown experiments and garbage bodies are 400s.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "test-b"})

	code, _, _ := submit(t, ts, Spec{Experiment: "nope", Quick: true})
	if code != http.StatusBadRequest {
		t.Fatalf("unknown experiment = %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d, want 400", resp.StatusCode)
	}
	if r, err := http.Get(ts.URL + "/api/v1/jobs/ffffffff"); err == nil {
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown id = %d, want 404", r.StatusCode)
		}
		r.Body.Close()
	}
}

// TestRestartServedFromDisk is the tentpole acceptance check: a job
// computed by one daemon process is answered by the next one — same
// cache dir, fresh memory — from the persistent tier, byte-identical.
func TestRestartServedFromDisk(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Experiment: "table2", Quick: true, Seed: 7}

	s1, err := New(Config{CacheDir: dir, Version: "rev-1"})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	code, v, _ := submit(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", code)
	}
	waitDone(t, ts1, v.ID)
	_, firstBody := getResult(t, ts1, v.ID)
	ts1.Close()
	s1.Close() // drains write-behind stores
	runcache.ResetAll()

	// "Restart": a new server process image — empty memory tier —
	// pointed at the same cache directory and code version.
	s2, ts2 := newTestServer(t, Config{CacheDir: dir, Version: "rev-1"})
	code, v2, _ := submit(t, ts2, spec)
	if code != http.StatusOK {
		t.Fatalf("post-restart submit = %d, want immediate 200", code)
	}
	if !v2.Cached || v2.Status != statusDone {
		t.Fatalf("post-restart view = %+v, want cached done", v2)
	}
	if v2.ID != v.ID {
		t.Fatalf("job id changed across restart: %s vs %s", v.ID, v2.ID)
	}
	_, secondBody := getResult(t, ts2, v2.ID)
	if !bytes.Equal(firstBody, secondBody) {
		t.Fatalf("disk-served result is not byte-identical:\n%s\nvs\n%s", firstBody, secondBody)
	}
	if st := s2.cache.Stats(); st.DiskHits == 0 {
		t.Fatalf("DiskHits = 0 after restart hit; stats %+v", st)
	}

	// A different code version must NOT see rev-1's entry.
	s2.Close()
	ts2.Close()
	runcache.ResetAll()
	s3, ts3 := newTestServer(t, Config{CacheDir: dir, Version: "rev-2"})
	code, v3, _ := submit(t, ts3, spec)
	if code != http.StatusAccepted || v3.Cached {
		t.Fatalf("new-version submit = %d %+v, want fresh 202", code, v3)
	}
	waitDone(t, ts3, v3.ID)
	_ = s3
}

// TestAdmissionControl fills the bounded queue with blocked jobs and
// asserts overload is shed with 429 + Retry-After while in-queue
// submissions stay idempotent.
func TestAdmissionControl(t *testing.T) {
	// Cleanup order (LIFO): the unblock below (registered last) fires
	// first so the executor can finish, then the server cleanup stops
	// it, and only then is the seam restored — restoring while jobs
	// still run would be a write race.
	t.Cleanup(func() { runExperiment = (*experiments.Env).RunJob })
	block := make(chan struct{})
	var unblock sync.Once
	runExperiment = func(_ *experiments.Env, name string, quick bool) (any, error) {
		<-block
		return map[string]any{"ok": true}, nil
	}

	_, ts := newTestServer(t, Config{Version: "test-c", QueueDepth: 2})
	t.Cleanup(func() { unblock.Do(func() { close(block) }) })

	// First job is dequeued by the executor and blocks; the next two
	// fill the queue. Seeds make the specs distinct content addresses.
	ids := map[string]bool{}
	for seed := uint64(0); seed < 3; seed++ {
		code, v, _ := submit(t, ts, Spec{Experiment: "fig2", Quick: true, Seed: seed})
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d = %d, want 202", seed, code)
		}
		ids[v.ID] = true
	}
	// Give the executor time to dequeue job 0 so the queue has exactly
	// QueueDepth entries; then new work must shed.
	deadline := time.Now().Add(5 * time.Second)
	shed := false
	var hdr http.Header
	for time.Now().Before(deadline) && !shed {
		code, _, h := submit(t, ts, Spec{Experiment: "fig2", Quick: true, Seed: 99})
		if code == http.StatusTooManyRequests {
			shed, hdr = true, h
			break
		}
		// 202 means the executor hadn't drained a slot yet and our
		// probe took it; it will be consumed as the queue drains.
		time.Sleep(5 * time.Millisecond)
	}
	if !shed {
		t.Fatal("queue never shed load with 429")
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 carried no Retry-After header")
	}

	// Duplicates of queued jobs are answered 202 without queueing again.
	code, _, _ := submit(t, ts, Spec{Experiment: "fig2", Quick: true, Seed: 1})
	if code != http.StatusAccepted {
		t.Fatalf("duplicate of queued job = %d, want 202", code)
	}

	unblock.Do(func() { close(block) })
	var st statsResponse
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.Jobs[statusDone] >= 3 && st.QueueDepth == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.Shed == 0 {
		t.Fatalf("stats.Shed = 0 after shedding; %+v", st)
	}
}

// TestQueueRunSplit: a job stuck behind a busy one reports the time it
// spent queued as waitMs and only its own run as runMs.
func TestQueueRunSplit(t *testing.T) {
	// Restore the seam only after the server cleanup has stopped the
	// executor (see TestAdmissionControl).
	t.Cleanup(func() { runExperiment = (*experiments.Env).RunJob })
	const hold, runFor = 300 * time.Millisecond, 50 * time.Millisecond
	release := make(chan struct{})
	var unblock sync.Once
	runExperiment = func(_ *experiments.Env, name string, quick bool) (any, error) {
		if name == "fig2" {
			<-release // the busy job
		} else {
			time.Sleep(runFor)
		}
		return map[string]any{"ok": true}, nil
	}

	_, ts := newTestServer(t, Config{Version: "test-g"})
	t.Cleanup(func() { unblock.Do(func() { close(release) }) })

	_, busy, _ := submit(t, ts, Spec{Experiment: "fig2", Quick: true})
	status := func(id string) view {
		resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v view
		json.NewDecoder(resp.Body).Decode(&v)
		return v
	}
	deadline := time.Now().Add(5 * time.Second)
	for status(busy.ID).Status != statusRunning {
		if time.Now().After(deadline) {
			t.Fatal("busy job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, queued, _ := submit(t, ts, Spec{Experiment: "table2", Quick: true})
	time.Sleep(hold)
	if v := status(queued.ID); v.Status != statusQueued || v.RunMs != 0 || v.WaitMs < float64(hold.Milliseconds()) {
		t.Fatalf("view while queued = %+v, want queued with waitMs >= %v and no runMs", v, hold)
	}
	unblock.Do(func() { close(release) })

	v := waitDone(t, ts, queued.ID)
	if v.Status != statusDone {
		t.Fatalf("final view = %+v, want done", v)
	}
	if v.WaitMs < float64(hold.Milliseconds()) {
		t.Errorf("waitMs = %v, want >= %v: the queue phase behind the busy job", v.WaitMs, hold)
	}
	if v.RunMs < float64(runFor.Milliseconds()) || v.RunMs >= float64(hold.Milliseconds()) {
		t.Errorf("runMs = %v, want the %v run alone, not the %v queue phase", v.RunMs, runFor, hold)
	}
}

// TestJobPanicFailsJobOnly: a panicking run marks the job failed (500
// on result), caches nothing, and a resubmission retries and succeeds.
func TestJobPanicFailsJobOnly(t *testing.T) {
	// Registered before newTestServer: restore only after the server
	// cleanup has stopped the executor (see TestAdmissionControl).
	t.Cleanup(func() { runExperiment = (*experiments.Env).RunJob })
	calls := 0
	runExperiment = func(_ *experiments.Env, name string, quick bool) (any, error) {
		calls++
		if calls == 1 {
			panic("injected model bug")
		}
		return map[string]any{"ok": calls}, nil
	}

	_, ts := newTestServer(t, Config{Version: "test-d"})
	spec := Spec{Experiment: "fig2", Quick: true}

	_, v, _ := submit(t, ts, spec)
	done := waitDone(t, ts, v.ID)
	if done.Status != statusFailed || !strings.Contains(done.Error, "injected model bug") {
		t.Fatalf("view after panic = %+v, want failed", done)
	}
	code, _ := getResult(t, ts, v.ID)
	if code != http.StatusInternalServerError {
		t.Fatalf("result of failed job = %d, want 500", code)
	}

	// Failures are never cached, so the retry actually runs.
	code, v2, _ := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("retry submit = %d, want 202", code)
	}
	done = waitDone(t, ts, v2.ID)
	if done.Status != statusDone || done.Cached {
		t.Fatalf("retry view = %+v, want freshly computed done", done)
	}
}

// TestTraceStreaming: a traced job serves its Perfetto document in
// chunks, offset-resumable, complete (and valid JSON) once done.
func TestTraceStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "test-e", TraceDir: t.TempDir()})

	_, v, _ := submit(t, ts, Spec{Experiment: "fig2", Quick: true, Trace: true})
	waitDone(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	whole.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Trace-Complete") != "true" {
		t.Fatalf("trace not complete after done; headers %v", resp.Header)
	}
	if whole.Len() == 0 || !json.Valid(whole.Bytes()) {
		t.Fatalf("trace body invalid (%d bytes)", whole.Len())
	}

	// Chunked: first half from 0, second half from the returned offset,
	// concatenation identical to the whole document.
	half := whole.Len() / 2
	get := func(offset int) ([]byte, string) {
		r, err := http.Get(fmt.Sprintf("%s/api/v1/jobs/%s/trace?offset=%d", ts.URL, v.ID, offset))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(r.Body)
		return b.Bytes(), r.Header.Get("X-Trace-Next-Offset")
	}
	// Simulate an incremental reader: read [0,half) via a range-free
	// poll is not possible, so read from 0 then from half.
	first, next := get(0)
	if next != fmt.Sprint(whole.Len()) {
		t.Fatalf("next offset = %s, want %d", next, whole.Len())
	}
	second, _ := get(half)
	if !bytes.Equal(append(append([]byte{}, first[:half]...), second...), whole.Bytes()) {
		t.Fatal("chunked trace reads do not reassemble the document")
	}

	// An untraced job has no trace endpoint.
	_, v2, _ := submit(t, ts, Spec{Experiment: "table2", Quick: true})
	waitDone(t, ts, v2.ID)
	r2, err := http.Get(ts.URL + "/api/v1/jobs/" + v2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of untraced job = %d, want 404", r2.StatusCode)
	}
}

// jobStatus reads a job's status from the status endpoint.
func jobStatus(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v view
	json.NewDecoder(resp.Body).Decode(&v)
	return v.Status
}

// getTrace fetches a job's trace from offset 0.
func getTrace(t *testing.T, ts *httptest.Server, id string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, b.String()
}

// TestTraceWriteFailure: a traced job whose trace file cannot be created
// still completes, and its trace ends in a terminal error instead of an
// endless run of empty, incomplete chunks.
func TestTraceWriteFailure(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "traces")
	s, ts := newTestServer(t, Config{Version: "test-h", TraceDir: traceDir})
	if err := os.RemoveAll(traceDir); err != nil {
		t.Fatal(err)
	}

	_, v, _ := submit(t, ts, Spec{Experiment: "table2", Quick: true, Trace: true})
	done := waitDone(t, ts, v.ID)
	if done.Status != statusDone || !done.Trace || done.TraceError == "" {
		t.Fatalf("view = %+v, want done with a traceError", done)
	}
	if code, _ := getResult(t, ts, v.ID); code != http.StatusOK {
		t.Errorf("result of a job whose trace failed = %d, want 200", code)
	}
	code, hdr, body := getTrace(t, ts, v.ID)
	if code != http.StatusInternalServerError || hdr.Get("X-Trace-Complete") != "true" || !strings.Contains(body, done.TraceError) {
		t.Errorf("trace = %d complete=%q %s, want a complete 500 carrying %q",
			code, hdr.Get("X-Trace-Complete"), body, done.TraceError)
	}
	if n := s.metrics.Counter("server/trace_errors"); n != 1 {
		t.Errorf("server/trace_errors = %d, want 1", n)
	}
}

// TestTraceCacheRecheck: a traced job answered from the cache after it
// queued never ran, so its trace answers 404 rather than polling forever.
func TestTraceCacheRecheck(t *testing.T) {
	t.Cleanup(func() { runExperiment = (*experiments.Env).RunJob })
	release := make(chan struct{})
	var unblock sync.Once
	runExperiment = func(_ *experiments.Env, name string, quick bool) (any, error) {
		if name == "fig2" {
			<-release // the busy job
		}
		return map[string]any{"ok": true}, nil
	}
	s, ts := newTestServer(t, Config{Version: "test-i", TraceDir: t.TempDir()})
	t.Cleanup(func() { unblock.Do(func() { close(release) }) })

	_, busy, _ := submit(t, ts, Spec{Experiment: "fig2", Quick: true})
	for deadline := time.Now().Add(5 * time.Second); jobStatus(t, ts, busy.ID) != statusRunning; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("busy job never started")
		}
	}
	_, queued, _ := submit(t, ts, Spec{Experiment: "table2", Quick: true, Trace: true})
	s.cache.Put(queued.ID, []byte(`{"ok":true}`))
	unblock.Do(func() { close(release) })

	if v := waitDone(t, ts, queued.ID); v.Status != statusDone || !v.Cached || v.TraceError != "" {
		t.Fatalf("view = %+v, want done from the cache with no traceError", v)
	}
	if code, _, body := getTrace(t, ts, queued.ID); code != http.StatusNotFound {
		t.Errorf("trace of a cache-answered job = %d %s, want 404", code, body)
	}
}

// TestMetricsAndStats: the long-lived registry carries both server
// counters and sweep gauges from the jobs it ran, and eta gauges are
// zero at rest (the bug this PR fixes left them dangling).
func TestMetricsAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "test-f"})

	_, v, _ := submit(t, ts, Spec{Experiment: "worstcase", Quick: true})
	waitDone(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if snap.Counters["server/jobs_done"] == 0 {
		t.Fatalf("jobs_done missing from metrics: %v", snap.Counters)
	}
	if snap.Counters["sweep/worstcase/jobs_done"] == 0 {
		t.Error("sweep metrics from job runs not in the server registry")
	}
	if eta := snap.Gauges["sweep/worstcase/eta_ms"]; eta != 0 {
		t.Errorf("eta_ms = %v at rest, want 0", eta)
	}

	resp, err = http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st statsResponse
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Version != "test-f" || st.Jobs[statusDone] == 0 || st.QueueCap == 0 {
		t.Fatalf("stats = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestCloseCancelsRunningJob: Close waits closeGrace for a job that
// would never finish on its own, then cancels it through Env.Ctx. The
// job fails, and its partial result reaches neither the memory nor the
// disk tier.
func TestCloseCancelsRunningJob(t *testing.T) {
	// Restore the seam only after the server cleanup has stopped the
	// executor (see TestAdmissionControl).
	t.Cleanup(func() { runExperiment = (*experiments.Env).RunJob })
	runExperiment = func(e *experiments.Env, name string, quick bool) (any, error) {
		<-e.Ctx.Done()
		// A cancelled sweep returns zero rows, not an error.
		return map[string]any{"rows": []int{0, 0}}, nil
	}

	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Version: "test-close", CacheDir: dir})
	_, v, _ := submit(t, ts, Spec{Experiment: "fig8"})
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		st, _, _ := s.jobs[v.ID].snapshot()
		s.mu.Unlock()
		if st == statusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	s.Close()
	if took := time.Since(start); took < closeGrace || took > closeGrace+2*time.Second {
		t.Errorf("Close took %v, want between the grace (%v) and the grace plus 2s", took, closeGrace)
	}
	s.mu.Lock()
	st, _, msg := s.jobs[v.ID].snapshot()
	s.mu.Unlock()
	if st != statusFailed || !strings.Contains(msg, "cancelled") {
		t.Errorf("cancelled job: status %q error %q, want failed and cancelled", st, msg)
	}
	if _, ok := s.cache.GetCached(v.ID); ok {
		t.Error("memory tier holds the cancelled job's result")
	}
	disk, err := runcache.NewDisk(dir, "test-close")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := disk.Load("server/jobs", v.ID); ok {
		t.Error("disk tier holds the cancelled job's result")
	}
}
