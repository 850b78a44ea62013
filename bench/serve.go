package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"xui/internal/experiments"
	"xui/internal/obs"
	"xui/internal/runcache"
	"xui/internal/server"
)

const (
	pollEvery   = 2 * time.Millisecond // cold client's status poll interval
	coldTimeout = 2 * time.Minute      // longest a cold job may take
)

// latency summarises one kind of operation in milliseconds.
type latency struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

func summarize(ms []float64) latency {
	return latency{N: len(ms), P50: percentile(ms, 50), P90: percentile(ms, 90), P99: percentile(ms, 99)}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveOut is what one daemon run reports.
type serveOut struct {
	failures
	PrimeS      float64 `json:"primeS"`
	WindowS     float64 `json:"windowS"`     // paced warm phase
	SatOps      int     `json:"satOps"`      // warm ops of the unpaced phase
	SatWindowS  float64 `json:"satWindowS"`  // unpaced warm phase
	ColdWindowS float64 `json:"coldWindowS"` // window start → last cold job done
	Warm        latency `json:"warm"`        // submit + result fetch of a primed spec
	Submit      latency `json:"submit"`
	Result      latency `json:"result"`
	ResultKiB   float64 `json:"resultKiB"` // mean warm result size
	Cold        latency `json:"cold"`      // submit → verified result of a fresh spec
	QueueWait   latency `json:"queueWait"` // submit → first poll not queued
	Run         latency `json:"run"`       // first running poll → first done poll
	Fetch       latency `json:"fetch"`     // done poll → result fetched
	DiskLoad    latency `json:"diskLoad"`
	DiskMiB     float64 `json:"diskMiB"`
	PaperErrPct float64 `json:"paperErrPct"`
	Stats       struct {
		Shed      uint64                         `json:"shed"`
		JobsCache runcache.Stats                 `json:"jobsCache"`
		Cache     experiments.CacheStatsSnapshot `json:"cache"`
	} `json:"stats"` // the daemon's /api/v1/stats
	Metrics obs.Snapshot `json:"metrics"` // the daemon's /api/v1/metrics
	Go      goStats      `json:"go"`
}

// client is one closed-loop caller holding one keep-alive connection.
type client struct {
	hc    *http.Client
	base  string
	tid   int
	spans *spanLog
}

// newClient builds client tid; a traced client records its own spans.
func newClient(base string, tid int, traced bool) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base, tid: tid}
	if traced {
		c.spans = &spanLog{}
	}
	return c
}

func (c *client) call(method, path string, body []byte) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *client) getJSON(path string, v any) error {
	code, data, err := c.call(http.MethodGet, path, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return json.Unmarshal(data, v)
}

// opID names operation k of an experiment for its spans; untraced runs
// skip formatting.
func (c *client) opID(kind string, k int, name string) string {
	if c.spans == nil {
		return ""
	}
	return kind + strconv.Itoa(c.tid) + "-" + strconv.Itoa(k) + "-" + name
}

// jobView is the part of a job status response the clients read.
type jobView struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// servedSpec is a submitted spec and the result digest it must serve.
type servedSpec struct {
	name   string
	body   []byte
	id     string
	digest string
}

// coldTimes splits one cold job's latency, in milliseconds.
type coldTimes struct {
	total, queueWait, run, fetch float64
}

// cold submits a spec the daemon has not seen, polls until it is done,
// fetches the result and checks it against the golden digest.
func (c *client) cold(kind, op, name string, seed uint64, gold golden) (servedSpec, []byte, coldTimes, error) {
	var t coldTimes
	s := servedSpec{name: name}
	s.body, _ = json.Marshal(server.Spec{Experiment: name, Quick: true, Seed: seed})
	root := c.spans.begin(kind, op, c.tid, -1)
	defer c.spans.end(root)

	t0 := time.Now()
	sp := c.spans.begin("submit", op, c.tid, root)
	code, data, err := c.call(http.MethodPost, "/api/v1/jobs", s.body)
	c.spans.end(sp)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("status %d, want 202", code)
	}
	var v jobView
	if err == nil {
		err = json.Unmarshal(data, &v)
	}
	if err != nil {
		return s, nil, t, fmt.Errorf("submitting %s: %w", name, err)
	}
	s.id = v.ID

	sp = c.spans.begin("poll", op, c.tid, root)
	running, done, err := c.poll(s.id, t0.Add(coldTimeout))
	c.spans.end(sp)
	if err != nil {
		return s, nil, t, fmt.Errorf("%s: %w", name, err)
	}

	sp = c.spans.begin("result", op, c.tid, root)
	code, doc, err := c.call(http.MethodGet, "/api/v1/jobs/"+s.id+"/result", nil)
	end := time.Now()
	c.spans.end(sp)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result status %d", code)
	}
	if err == nil {
		err = gold.check(name, true, doc)
	}
	if err != nil {
		return s, nil, t, fmt.Errorf("fetching %s: %w", name, err)
	}
	s.digest = digest(doc)
	t = coldTimes{
		total:     millis(end.Sub(t0)),
		queueWait: millis(running.Sub(t0)),
		run:       millis(done.Sub(running)),
		fetch:     millis(end.Sub(done)),
	}
	return s, doc, t, nil
}

// poll reads a job's status every pollEvery until it is done, returning
// when it was first seen not queued and first seen done.
func (c *client) poll(id string, deadline time.Time) (running, done time.Time, err error) {
	for {
		var v jobView
		if err := c.getJSON("/api/v1/jobs/"+id, &v); err != nil {
			return running, done, err
		}
		now := time.Now()
		if v.Status != "queued" && running.IsZero() {
			running = now
		}
		switch {
		case v.Status == "done":
			return running, now, nil
		case v.Status == "failed":
			return running, done, errors.New("job failed: " + v.Error)
		case now.After(deadline):
			return running, done, fmt.Errorf("job still %s after %v", v.Status, coldTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// warm resubmits a primed spec (a cache hit) and fetches its result.
func (c *client) warm(op string, s servedSpec) (submitMs, resultMs float64, size int, err error) {
	root := c.spans.begin("warm-op", op, c.tid, -1)
	defer c.spans.end(root)
	t0 := time.Now()
	sp := c.spans.begin("submit", op, c.tid, root)
	code, _, err := c.call(http.MethodPost, "/api/v1/jobs", s.body)
	c.spans.end(sp)
	t1 := time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d, want 200", code)
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("resubmitting %s: %w", s.name, err)
	}
	sp = c.spans.begin("result", op, c.tid, root)
	code, doc, err := c.call(http.MethodGet, "/api/v1/jobs/"+s.id+"/result", nil)
	c.spans.end(sp)
	t2 := time.Now()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result status %d", code)
	}
	if err == nil && digest(doc) != s.digest {
		err = errors.New("result digest differs from golden")
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("fetching %s: %w", s.name, err)
	}
	return millis(t1.Sub(t0)), millis(t2.Sub(t1)), len(doc), nil
}

// warmRec and coldRec collect one client's samples.
type warmRec struct {
	failures
	op, submit, result []float64
	bytes              int
	elapsed            float64 // seconds from the loop's start to its last reply
}

type coldRec struct {
	failures
	total, queueWait, run, fetch []float64
	jobs                         []servedSpec
}

// warmLoop requests seeded-uniform primed specs until the deadline. With
// a positive rate the client paces itself: op k is sent no earlier than
// k/rate seconds into the window, and still waits for each reply.
func warmLoop(c *client, primed []servedSpec, rng *rand.Rand, rate float64, deadline time.Time) warmRec {
	var r warmRec
	start := time.Now()
	for k := 0; time.Now().Before(deadline); k++ {
		if rate > 0 {
			time.Sleep(time.Until(start.Add(time.Duration(float64(k) / rate * float64(time.Second)))))
		}
		r.Attempted++
		spec := primed[rng.IntN(len(primed))]
		sub, res, size, err := c.warm(c.opID("w", k, spec.name), spec)
		if err != nil {
			r.fail(err)
			continue
		}
		r.op = append(r.op, sub+res)
		r.submit = append(r.submit, sub)
		r.result = append(r.result, res)
		r.bytes += size
	}
	r.elapsed = time.Since(start).Seconds()
	return r
}

// coldLoop submits fresh-seeded quick jobs in seeded-shuffled decks of
// one of each experiment, starting decks until the deadline and finishing
// the last one, so every run computes the same mix.
func coldLoop(c *client, names []string, seed uint64, gold golden, rng *rand.Rand, deadline time.Time) coldRec {
	var r coldRec
	deck := append([]string(nil), names...)
	for k := 0; k%len(deck) != 0 || time.Now().Before(deadline); k++ {
		if k%len(deck) == 0 {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		r.Attempted++
		name := deck[k%len(deck)]
		s, _, t, err := c.cold("cold-op", c.opID("c", k, name), name, seed+1+uint64(k), gold)
		if err != nil {
			r.fail(err)
			continue
		}
		r.total = append(r.total, t.total)
		r.queueWait = append(r.queueWait, t.queueWait)
		r.run = append(r.run, t.run)
		r.fetch = append(r.fetch, t.fetch)
		r.jobs = append(r.jobs, s)
	}
	return r
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// serveChild hosts one xuiserve daemon in-process on 127.0.0.1:0, primes
// it, and drives it with closed-loop clients for the window. In probe
// mode it exits as soon as the daemon answers /healthz.
func serveChild(args []string, stdout io.Writer) error {
	fset := flag.NewFlagSet("serve", flag.ContinueOnError)
	probe := fset.Bool("probe", false, "report ready and exit")
	seed := fset.Uint64("seed", 1, "workload seed")
	seconds := fset.Float64("seconds", 15, "client window in seconds")
	prime := fset.String("prime", "", "comma-separated quick specs primed before the window")
	cold := fset.String("cold", "", "comma-separated quick experiments of the cold client")
	warmClients := fset.Int("clients", 1, "closed-loop warm clients")
	warmRate := fset.Float64("warm-rate", 0, "ops per second each warm client paces itself to (0: as fast as replies come)")
	saturate := fset.Bool("saturate", false, "pace only the first half of the window; run the warm clients unpaced in the second")
	workDir := fset.String("workdir", "", "daemon scratch directory")
	disk := fset.Bool("disk", false, "back the daemon with a disk-tier cache under -workdir")
	profile := fset.String("cpuprofile", "", "write a CPU profile of the window here")
	spansOut := fset.String("spans", "", "write harness spans here")
	if err := fset.Parse(args); err != nil {
		return err
	}
	experiments.SetShards(1)
	cfg := server.Config{MaxJobWorkers: 1, TraceDir: filepath.Join(*workDir, "traces")}
	if *disk {
		cfg.CacheDir = filepath.Join(*workDir, "cache")
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var clients []*client
	stop := sync.OnceValue(func() error {
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-served
		return errors.Join(err, srv.Close())
	})
	defer stop()

	traced := *spansOut != ""
	base := "http://" + ln.Addr().String()
	c0 := newClient(base, 0, traced)
	clients = append(clients, c0)
	var health struct {
		Version string `json:"version"`
	}
	if err := c0.getJSON("/healthz", &health); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "ready")
	if *probe {
		return stop()
	}

	gold, err := loadGolden()
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	var out serveOut

	// Prime: compute every spec once, cold, so the window's warm requests
	// are all cache hits.
	var primed []servedSpec
	docs := map[string][]byte{}
	t0 := time.Now()
	for k, name := range splitList(*prime) {
		out.Attempted++
		s, doc, _, err := c0.cold("prime-op", c0.opID("p", k, name), name, *seed, gold)
		if err != nil {
			out.fail(err)
			continue
		}
		primed = append(primed, s)
		docs[name] = doc
	}
	out.PrimeS = time.Since(t0).Seconds()
	out.PaperErrPct = paperErrPct(docs)

	stopProfile, err := startProfile(*profile)
	if err != nil {
		return err
	}
	window := time.Duration(*seconds * float64(time.Second))
	start := time.Now()
	deadline, paced := start.Add(window), start.Add(window)
	if *saturate {
		paced = start.Add(window / 2)
	}
	var warmDone, coldDone sync.WaitGroup
	warm, sat := make([]warmRec, *warmClients), make([]warmRec, *warmClients)
	if len(primed) > 0 {
		for i := range warm {
			c := c0
			if i > 0 {
				c = newClient(base, i, traced)
				clients = append(clients, c)
			}
			rng := rand.New(rand.NewPCG(*seed, uint64(i)))
			warmDone.Add(1)
			go func() {
				defer warmDone.Done()
				warm[i] = warmLoop(c, primed, rng, *warmRate, paced)
				if *saturate {
					sat[i] = warmLoop(c, primed, rng, 0, deadline)
				}
			}()
		}
	}
	var cr coldRec
	if names := splitList(*cold); len(names) > 0 {
		c := newClient(base, *warmClients, traced)
		clients = append(clients, c)
		rng := rand.New(rand.NewPCG(*seed, 1<<32))
		coldDone.Add(1)
		go func() {
			defer coldDone.Done()
			cr = coldLoop(c, names, *seed, gold, rng, deadline)
		}()
	}
	warmDone.Wait()
	coldDone.Wait()
	out.ColdWindowS = time.Since(start).Seconds()
	if err := stopProfile(); err != nil {
		return err
	}

	var op, submit, result []float64
	var size int
	for i, r := range warm {
		out.merge(r.failures)
		op = append(op, r.op...)
		submit = append(submit, r.submit...)
		result = append(result, r.result...)
		size += r.bytes
		out.WindowS = max(out.WindowS, r.elapsed)
		out.merge(sat[i].failures)
		out.SatOps += len(sat[i].op)
		out.SatWindowS = max(out.SatWindowS, sat[i].elapsed)
	}
	out.Warm, out.Submit, out.Result = summarize(op), summarize(submit), summarize(result)
	if len(op) > 0 {
		out.ResultKiB = float64(size) / float64(len(op)) / 1024
	}
	out.merge(cr.failures)
	out.Cold, out.QueueWait = summarize(cr.total), summarize(cr.queueWait)
	out.Run, out.Fetch = summarize(cr.run), summarize(cr.fetch)

	if err := c0.getJSON("/api/v1/stats", &out.Stats); err != nil {
		return err
	}
	if err := c0.getJSON("/api/v1/metrics", &out.Metrics); err != nil {
		return err
	}
	if err := stop(); err != nil {
		return err
	}
	if *disk {
		if err := checkDisk(&out, cfg.CacheDir, health.Version, cr.jobs); err != nil {
			return err
		}
	}
	out.Go = heap.finish()
	var logs []*spanLog
	for _, c := range clients {
		logs = append(logs, c.spans)
	}
	if err := writeSpans(*spansOut, logs...); err != nil {
		return err
	}
	return emit(stdout, out)
}

// checkDisk reopens the stopped daemon's disk tier and loads every cold
// job's entry, which must hold the bytes that were served.
func checkDisk(out *serveOut, dir, version string, jobs []servedSpec) error {
	d, err := runcache.NewDisk(dir, version)
	if err != nil {
		return err
	}
	var loads []float64
	for _, j := range jobs {
		out.Attempted++
		t := time.Now()
		data, ok := d.Load("server/jobs", j.id)
		loads = append(loads, millis(time.Since(t)))
		switch {
		case !ok:
			out.fail(fmt.Errorf("disk tier has no entry for %s job %s", j.name, j.id))
		case digest(data) != j.digest:
			out.fail(fmt.Errorf("disk tier entry for %s job %s differs from the served bytes", j.name, j.id))
		}
	}
	out.DiskLoad = summarize(loads)
	var total int64
	err = filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	out.DiskMiB = float64(total) / (1 << 20)
	return err
}
