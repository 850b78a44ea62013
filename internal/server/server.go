// Package server is the xuiserve daemon core: a long-running HTTP
// service that accepts sweep/experiment jobs, executes them through the
// shared job registry (internal/experiments), streams progress and
// Perfetto trace chunks while they run, and answers repeated
// submissions from its result store so results survive restarts.
//
// # Result store
//
// A finished job's result lives in Server.jobs, and nowhere else in
// memory. With Config.CacheDir set, the server also owns a disk tier (a
// runcache.Disk, content-addressed by code version and job id): a
// submission that misses Server.jobs probes the disk, the executor
// probes it again before it runs a job, and every finished job is
// written behind to it. Close drains those writes. Servers share
// nothing in memory, so several may run in one process, and several
// processes may share one CacheDir.
//
// # Concurrency model
//
// The HTTP layer is fully concurrent — status, result, trace and
// cache-hit submissions are cheap map/disk reads serving hundreds of
// clients — while simulation itself runs on a single executor
// goroutine draining a bounded queue. One simulator daemon, many
// clients: each job runs on an experiments.Env of its own, with a
// per-job sweep worker budget (capped by Config.MaxJobWorkers) that
// saturates the host through internal/sweep, and its own trace and
// progress sinks. The bounded queue is the admission valve: past the
// high-water mark the server sheds load with 429 + Retry-After instead
// of queueing without bound (and eventually OOMing) under overload.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xui/internal/experiments"
	"xui/internal/obs"
	"xui/internal/report"
	"xui/internal/runcache"
)

// Config parameterises a Server.
type Config struct {
	// CacheDir roots the disk tier of job results; "" keeps results in
	// memory only (they die with the process).
	CacheDir string
	// Version overrides the code-version component of cache addresses;
	// "" uses runcache.CodeVersion().
	Version string
	// QueueDepth is the admission high-water mark: submissions beyond
	// this many queued jobs are shed with 429. <= 0 means 64.
	QueueDepth int
	// MaxJobWorkers caps the per-job sweep worker budget. <= 0 means
	// runtime.GOMAXPROCS(0).
	MaxJobWorkers int
	// TraceDir is where per-job streaming trace files go; "" means
	// CacheDir/traces when CacheDir is set, else the OS temp dir.
	TraceDir string
}

// Server is the daemon. Build with New, serve Handler(), Close on
// shutdown.
type Server struct {
	cfg     Config
	version string
	disk    *runcache.Disk // nil without Config.CacheDir
	metrics *obs.Registry

	mu   sync.Mutex
	jobs map[string]*job //xui:guardedby mu

	queue     chan *job
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	// runCtx is every job's Env.Ctx; Close cancels it once the running
	// job has had closeGrace to finish.
	runCtx    context.Context
	cancelRun context.CancelFunc

	// stores tracks write-behind disk stores in flight; Close waits.
	stores     sync.WaitGroup
	diskHits   atomic.Uint64
	diskStores atomic.Uint64
	diskErrors atomic.Uint64

	shed      atomic.Uint64
	runMsSum  atomic.Uint64
	runMsN    atomic.Uint64
	startedAt time.Time
}

// diskCache is the cache name job results are addressed under on disk.
const diskCache = "server/jobs"

// closeGrace bounds how long Close waits for the running job before
// cancelling it. A cancelled job stops at its next grid point, so Close
// returns about one grid point's run time after the grace.
const closeGrace = 2 * time.Second

// runExperiment is Env.RunJob, indirected so tests can inject blocking
// or panicking jobs without a real grid.
var runExperiment = (*experiments.Env).RunJob

// New builds a Server, opening the disk tier when cfg.CacheDir is set.
// The returned server's executor is running.
func New(cfg Config) (*Server, error) {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxJobWorkers <= 0 {
		cfg.MaxJobWorkers = runtime.GOMAXPROCS(0)
	}
	version := cfg.Version
	if version == "" {
		version = runcache.CodeVersion()
	}
	if cfg.TraceDir == "" {
		if cfg.CacheDir != "" {
			cfg.TraceDir = filepath.Join(cfg.CacheDir, "traces")
		} else {
			cfg.TraceDir = filepath.Join(os.TempDir(), "xuiserve-traces")
		}
	}
	if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
		return nil, err
	}
	var disk *runcache.Disk
	if cfg.CacheDir != "" {
		var err error
		if disk, err = runcache.NewDisk(cfg.CacheDir, version); err != nil {
			return nil, err
		}
	}
	s := &Server{
		cfg:       cfg,
		version:   version,
		disk:      disk,
		metrics:   obs.NewRegistry(),
		jobs:      map[string]*job{},
		queue:     make(chan *job, cfg.QueueDepth),
		stop:      make(chan struct{}),
		startedAt: time.Now(),
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	installFloor()
	s.wg.Add(1)
	go s.executor()
	return s, nil
}

// Close stops the executor (jobs already queued are abandoned in the
// queued state) and drains the write-behind disk stores. A running job
// gets closeGrace to finish; then it is cancelled and fails, and nothing
// of it is stored. Safe to call more than once.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		idle := make(chan struct{})
		//xui:norecover the body is wg.Wait and a close, neither of which panics
		go func() {
			s.wg.Wait()
			close(idle)
		}()
		grace := time.NewTimer(closeGrace)
		select {
		case <-idle:
		case <-grace.C:
			s.cancelRun()
			<-idle
		}
		grace.Stop()
		s.cancelRun()
		// Only the executor issues stores, and it has exited.
		s.stores.Wait()
	})
	return nil
}

// load probes the disk tier for a finished job's result.
func (s *Server) load(id string) ([]byte, bool) {
	if s.disk == nil {
		return nil, false
	}
	data, ok := s.disk.Load(diskCache, id)
	if ok {
		s.diskHits.Add(1)
	}
	return data, ok
}

// store writes a finished job's result behind to the disk tier, so the
// executor never waits on the fsync. Stores are issued by the one
// executor, one per job it finishes, so few are ever in flight.
func (s *Server) store(id string, data []byte) {
	if s.disk == nil {
		return
	}
	s.stores.Add(1)
	//xui:norecover Disk.Store reports every failure as an error and the body does nothing else
	go func() {
		defer s.stores.Done()
		if err := s.disk.Store(diskCache, id, data); err != nil {
			s.diskErrors.Add(1)
			return
		}
		s.diskStores.Add(1)
	}()
}

// executor drains the job queue, one job at a time.
func (s *Server) executor() {
	defer s.wg.Done()
	// Jobs are individually panic-isolated inside runJob; a panic reaching
	// this frame means daemon infrastructure (cache recheck, metrics,
	// trace setup) failed. Count it and respawn so queued jobs keep
	// draining instead of the whole process dying.
	defer func() {
		if r := recover(); r != nil {
			s.metrics.Inc("server/executor_panics")
			s.wg.Add(1)
			go s.executor()
		}
	}()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue:
			s.metrics.SetGauge("server/queue_depth", float64(len(s.queue)))
			s.runJob(j)
		}
	}
}

// runJob executes one job to completion: cache recheck, the job's Env
// (sweep budget, observability, progress), the run itself
// (panic-isolated), result canonicalisation, and the write-behind store.
func (s *Server) runJob(j *job) {
	j.setRunning()
	// Another server or process sharing the disk tier may have stored
	// the result while this job waited.
	if data, ok := s.load(j.id); ok {
		j.setDone(data, true)
		j.finishTrace("") // nothing ran, so no trace was written
		s.metrics.Inc("server/jobs_done")
		return
	}

	budget := j.spec.Workers
	if budget <= 0 || budget > s.cfg.MaxJobWorkers {
		budget = s.cfg.MaxJobWorkers
	}
	ctx := &obs.Context{Metrics: s.metrics}
	var traceErr error
	if j.spec.Trace {
		// A trace-file failure degrades the job to traceless rather
		// than failing it: the trace is a side artifact. The failure is
		// kept on the job and served by /trace instead.
		ctx.Trace, traceErr = obs.StreamFile(j.tracePath)
	}
	env := &experiments.Env{Workers: budget, Obs: ctx, Progress: j.setProgress, Ctx: s.runCtx}
	start := time.Now()
	defer func() {
		if j.spec.Trace {
			// A write failure mid-stream (ENOSPC, say) surfaces at Close.
			if err := ctx.Trace.Close(); traceErr == nil {
				traceErr = err
			}
			msg := ""
			if traceErr != nil {
				msg = traceErr.Error()
				s.metrics.Inc("server/trace_errors")
			}
			j.finishTrace(msg)
		}
		ms := uint64(time.Since(start).Milliseconds())
		s.runMsSum.Add(ms)
		s.runMsN.Add(1)
	}()

	var payload any
	err := func() (err error) {
		defer func() {
			// A panicking job — a model bug, or a sweep failure
			// surfaced through the pool — fails this job only, never
			// the daemon. Nothing poisoned is cached or persisted, so
			// a resubmission retries cleanly.
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		payload, err = runExperiment(env, j.spec.Experiment, j.spec.Quick)
		return
	}()
	if err == nil && s.runCtx.Err() != nil {
		// A cancelled sweep returns zero rows for the points it never
		// ran; that payload is incomplete and must not be stored.
		err = errors.New("cancelled: server shutting down")
	}
	if err != nil {
		j.setFailed(err.Error())
		s.metrics.Inc("server/jobs_failed")
		return
	}

	rep := report.New("xuiserve")
	rep.Experiment = j.spec.Experiment
	rep.Quick = j.spec.Quick
	rep.AddResult(j.spec.Experiment, payload)
	data, err := rep.Fingerprint()
	if err != nil {
		j.setFailed("encoding result: " + err.Error())
		s.metrics.Inc("server/jobs_failed")
		return
	}
	j.setDone(data, false)
	s.store(j.id, data)
	s.metrics.Inc("server/jobs_done")
}

// retryAfterSec estimates how long a shed client should wait before
// resubmitting: the queue's expected drain time at the observed mean
// job duration (2s per job before any job has finished).
func (s *Server) retryAfterSec() int {
	avgMs := uint64(2000)
	if n := s.runMsN.Load(); n > 0 {
		avgMs = s.runMsSum.Load() / n
	}
	sec := int((uint64(len(s.queue)+1)*avgMs + 999) / 1000)
	if sec < 1 {
		sec = 1
	}
	if sec > 600 {
		sec = 600
	}
	return sec
}

// Handler returns the daemon's HTTP API:
//
//	POST /api/v1/jobs             submit a Spec; 200 done (cached) | 202 queued | 429 shed
//	GET  /api/v1/jobs             list jobs
//	GET  /api/v1/jobs/{id}        job status + progress
//	GET  /api/v1/jobs/{id}/result canonical result document (200 | 202 not ready | 500 failed)
//	GET  /api/v1/jobs/{id}/trace  trace chunk from ?offset=N
//	GET  /api/v1/stats            queue, job, cache and GC counters
//	GET  /api/v1/metrics          metrics-registry snapshot
//	GET  /healthz                 liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "version": s.version})
	})
	return mux
}

// writeJSON writes v indented, with a trailing newline. Every v here is
// a struct or map of plain fields, which always marshals.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, _ := json.MarshalIndent(v, "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleSubmit is the admission path. Submissions are idempotent by
// content address: a duplicate of a queued/running/done job returns
// that job; a duplicate of a failed job retries it (failures are never
// cached, so transient ones — say, a panicking progress client — heal
// on resubmit). New work past the queue's high-water mark is shed with
// 429 + Retry-After.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if err := spec.validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := jobID(s.version, spec)
	s.metrics.Inc("server/submitted")

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		status, _, _, _ := j.snapshot()
		if status != statusFailed {
			s.mu.Unlock()
			code := http.StatusOK
			if status != statusDone {
				code = http.StatusAccepted
			}
			writeJSON(w, code, j.view())
			return
		}
		// Failed: fall through and retry with a fresh record.
	}

	// Then the disk tier. A hit is a completed job that never queues,
	// which is how a restarted daemon answers repeat submissions
	// instantly.
	if data, ok := s.load(id); ok {
		j := &job{id: id, spec: spec, status: statusQueued, queuedAt: time.Now()}
		j.setDone(data, true)
		s.jobs[id] = j
		s.mu.Unlock()
		s.metrics.Inc("server/cache_answered")
		writeJSON(w, http.StatusOK, j.view())
		return
	}

	j := &job{id: id, spec: spec, status: statusQueued, queuedAt: time.Now()}
	if spec.Trace {
		j.tracePath = filepath.Join(s.cfg.TraceDir, id+".trace.json")
	}
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.mu.Unlock()
		s.metrics.SetGauge("server/queue_depth", float64(len(s.queue)))
		writeJSON(w, http.StatusAccepted, j.view())
	default:
		s.mu.Unlock()
		s.shed.Add(1)
		s.metrics.Inc("server/shed")
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSec()))
		writeErr(w, http.StatusTooManyRequests,
			"queue full (%d jobs); retry after the suggested delay", s.cfg.QueueDepth)
	}
}

func (s *Server) lookup(r *http.Request) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[r.PathValue("id")]
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]view, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, k int) bool { return views[i].ID < views[k].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// handleResult serves the canonical result document: the
// fingerprint-covered subset of a run report (schema, cmd, experiment,
// quick, results), byte-identical for a given (code version, spec)
// whether it was computed here, by an earlier process sharing the disk
// tier, or by xuibench locally.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	status, result, errMsg, cached := j.snapshot()
	switch status {
	case statusDone:
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(result)))
		h.Set("X-Job-Cached", strconv.FormatBool(cached))
		w.WriteHeader(http.StatusOK)
		w.Write(result)
	case statusFailed:
		writeErr(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	default:
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusAccepted, "job is %s", status)
	}
}

// noTrace answers a trace request for a job that has no trace.
const noTrace = "job has no trace (submit with \"trace\": true; cache hits never trace)"

// handleTrace serves the job's streaming Perfetto trace incrementally:
// the bytes from ?offset=N to the current end of file, with
// X-Trace-Next-Offset carrying the offset to poll from next and
// X-Trace-Complete flipping to true once the tracer has closed (the
// document is then valid JSON end to end). A trace that could not be
// written ends the poll with a complete 500 carrying the error; a job
// answered from the cache after it queued never traced and answers 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r)
	if j == nil {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	path, complete, traceErr := j.tracePath, j.traceDone, j.traceErr
	j.mu.Unlock()
	if path == "" {
		writeErr(w, http.StatusNotFound, noTrace)
		return
	}
	if traceErr != "" {
		w.Header().Set("X-Trace-Complete", "true")
		writeErr(w, http.StatusInternalServerError, "writing trace: %s", traceErr)
		return
	}
	var offset int64
	if q := r.URL.Query().Get("offset"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "bad offset %q", q)
			return
		}
		offset = v
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		if complete {
			writeErr(w, http.StatusNotFound, noTrace)
			return
		}
		// Queued, or running but nothing flushed yet: an empty chunk.
		w.Header().Set("X-Trace-Next-Offset", "0")
		w.Header().Set("X-Trace-Complete", "false")
		w.WriteHeader(http.StatusOK)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "opening trace: %v", err)
		return
	}
	defer f.Close()
	size := int64(0)
	if st, err := f.Stat(); err == nil {
		size = st.Size()
	}
	if offset > size {
		offset = size
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Trace-Next-Offset", strconv.FormatInt(size, 10))
	w.Header().Set("X-Trace-Complete", strconv.FormatBool(complete))
	w.WriteHeader(http.StatusOK)
	if offset < size {
		f.Seek(offset, io.SeekStart)
		io.CopyN(w, f, size-offset)
	}
}

// statsResponse is the /api/v1/stats payload.
type statsResponse struct {
	Version    string                         `json:"version"`
	UptimeSec  float64                        `json:"uptimeSec"`
	QueueDepth int                            `json:"queueDepth"`
	QueueCap   int                            `json:"queueCap"`
	Shed       uint64                         `json:"shed"`
	Jobs       map[string]int                 `json:"jobs"`
	JobsCache  runcache.Stats                 `json:"jobsCache"` // the disk tier's counters
	Cache      experiments.CacheStatsSnapshot `json:"cache"`
	PersistDir string                         `json:"persistDir,omitempty"`
	GC         gcStats                        `json:"gc"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	byStatus := map[string]int{}
	for _, j := range s.jobs {
		st, _, _, _ := j.snapshot()
		byStatus[st]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, statsResponse{
		Version:    s.version,
		UptimeSec:  time.Since(s.startedAt).Seconds(),
		QueueDepth: len(s.queue),
		QueueCap:   s.cfg.QueueDepth,
		Shed:       s.shed.Load(),
		Jobs:       byStatus,
		JobsCache: runcache.Stats{
			Name:       diskCache,
			DiskHits:   s.diskHits.Load(),
			DiskStores: s.diskStores.Load(),
			DiskErrors: s.diskErrors.Load(),
		},
		Cache:      experiments.CacheStats(),
		PersistDir: s.cfg.CacheDir,
		GC:         readGCStats(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}
