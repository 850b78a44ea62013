package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"xui/internal/experiments"
)

// Spec is the canonical description of one job a client submits: which
// experiment to run and at what grid scale. The job's identity — and
// the persistent cache's address — is derived from the keyed subset
// plus the daemon's code version, so identical submissions against the
// same build share one computation forever, across restarts.
type Spec struct {
	// Experiment names a registered experiment (experiments.JobNames).
	Experiment string `json:"experiment"`
	// Quick selects the reduced-grid scale. Part of the key.
	Quick bool `json:"quick"`
	// Seed is a keyed input reserved for seed-parameterized grids. The
	// paper experiments derive their RNG streams internally, so today it
	// only partitions the cache (seed 0 and seed 1 are distinct jobs).
	Seed uint64 `json:"seed"`
	// Workers requests a sweep worker budget for this job, capped by the
	// server's per-job maximum. Scheduling only — never part of the key
	// (rows are byte-identical at any -j; TestSweepParity).
	Workers int `json:"workers,omitempty"`
	// Trace asks for a streaming Perfetto trace of the run, served in
	// chunks at /api/v1/jobs/{id}/trace. Side artifact — not keyed, and
	// a cache hit carries no trace (nothing ran).
	Trace bool `json:"trace,omitempty"`
}

// canonical renders the keyed subset of the spec in a fixed field
// order. This string — not the client's JSON, whose field order and
// whitespace are theirs — is what gets hashed.
func (s Spec) canonical() string {
	return fmt.Sprintf("experiment=%s|quick=%t|seed=%d", s.Experiment, s.Quick, s.Seed)
}

// validate rejects specs naming unknown experiments.
func (s Spec) validate() error {
	if !experiments.JobKnown(s.Experiment) {
		return fmt.Errorf("unknown experiment %q", s.Experiment)
	}
	return nil
}

// jobID is the content address: SHA-256 over (code version, canonical
// config) — the canonical config covers the seed — truncated to 32 hex
// digits. Two processes built from the same code derive the same id for
// the same work, which is exactly what makes the disk tier's answer
// valid across restarts.
func jobID(version string, s Spec) string {
	sum := sha256.Sum256([]byte(version + "\x00" + s.canonical()))
	return hex.EncodeToString(sum[:16])
}

// Job states.
const (
	statusQueued  = "queued"
	statusRunning = "running"
	statusDone    = "done"
	statusFailed  = "failed"
)

// progress is the latest per-sweep completion report, streamed from
// sweep.Options.OnProgress via the experiments progress hook.
type progress struct {
	Sweep string `json:"sweep,omitempty"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// job is the server-side record of one submission.
type job struct {
	id   string
	spec Spec

	mu        sync.Mutex
	status    string    //xui:guardedby mu
	cached    bool      //xui:guardedby mu
	err       string    //xui:guardedby mu
	result    []byte    //xui:guardedby mu
	prog      progress  //xui:guardedby mu
	tracePath string    // set before the job is published; immutable after
	traceDone bool      //xui:guardedby mu
	traceErr  string    //xui:guardedby mu
	queuedAt  time.Time // set before the job is published; immutable after
	startedAt time.Time //xui:guardedby mu
	doneAt    time.Time //xui:guardedby mu
}

// view is the JSON shape of a job status response.
type view struct {
	ID         string   `json:"id"`
	Experiment string   `json:"experiment"`
	Quick      bool     `json:"quick"`
	Seed       uint64   `json:"seed"`
	Status     string   `json:"status"`
	Cached     bool     `json:"cached"`
	Error      string   `json:"error,omitempty"`
	Progress   progress `json:"progress"`
	Trace      bool     `json:"trace"`
	TraceError string   `json:"traceError,omitempty"` // why a requested trace could not be written
	WaitMs     float64  `json:"waitMs"`               // submit → start of run (or now while queued)
	RunMs      float64  `json:"runMs,omitempty"`      // start of run → done, once done
}

func (j *job) view() view {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := view{
		ID:         j.id,
		Experiment: j.spec.Experiment,
		Quick:      j.spec.Quick,
		Seed:       j.spec.Seed,
		Status:     j.status,
		Cached:     j.cached,
		Error:      j.err,
		Progress:   j.prog,
		Trace:      j.tracePath != "",
		TraceError: j.traceErr,
	}
	if !j.queuedAt.IsZero() {
		// The queue phase ends when the executor starts the job, or at
		// completion for a job answered from the cache at submission.
		waitEnd := j.startedAt
		if waitEnd.IsZero() {
			waitEnd = j.doneAt
		}
		if waitEnd.IsZero() {
			waitEnd = time.Now()
		}
		v.WaitMs = millis(waitEnd.Sub(j.queuedAt))
		if !j.startedAt.IsZero() && !j.doneAt.IsZero() {
			v.RunMs = millis(j.doneAt.Sub(j.startedAt))
		}
	}
	return v
}

func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (j *job) setRunning() {
	j.mu.Lock()
	j.status = statusRunning
	j.startedAt = time.Now()
	j.mu.Unlock()
}

func (j *job) setProgress(sweep string, done, total int) {
	j.mu.Lock()
	j.prog = progress{Sweep: sweep, Done: done, Total: total}
	j.mu.Unlock()
}

func (j *job) setDone(result []byte, cached bool) {
	j.mu.Lock()
	j.status = statusDone
	j.result = result
	j.cached = cached
	j.doneAt = time.Now()
	j.mu.Unlock()
}

func (j *job) setFailed(msg string) {
	j.mu.Lock()
	j.status = statusFailed
	j.err = msg
	j.doneAt = time.Now()
	j.mu.Unlock()
}

// finishTrace marks the job's trace final, so /trace stops reporting it
// as still being written; msg is why the trace could not be written, if
// it could not.
func (j *job) finishTrace(msg string) {
	j.mu.Lock()
	j.traceDone = true
	j.traceErr = msg
	j.mu.Unlock()
}

// snapshot reads the job's outcome under one lock.
func (j *job) snapshot() (status string, result []byte, errMsg string, cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.result, j.err, j.cached
}
