package experiments

import (
	"bytes"
	"encoding/json"
	"regexp"
	"sort"
	"sync"
	"testing"

	"xui/internal/check"
	"xui/internal/obs"
	"xui/internal/runcache"
)

// isoRun is one job of TestEnvIsolation on an Env of its own: a stream
// tracer into buf, a registry, a collector and a progress recorder.
type isoRun struct {
	job     string
	env     *Env
	buf     bytes.Buffer
	reg     *obs.Registry
	col     *check.Collector
	mu      sync.Mutex
	sweeps  map[string]bool
	payload any
	err     error
}

func newIsoRun(job string) *isoRun {
	r := &isoRun{job: job, reg: obs.NewRegistry(), col: check.NewCollector(), sweeps: map[string]bool{}}
	r.env = &Env{
		Obs:   &obs.Context{Trace: obs.NewStreamTracer(&r.buf), Metrics: r.reg},
		Check: r.col,
		Progress: func(sweep string, _, _ int) {
			r.mu.Lock()
			r.sweeps[sweep] = true
			r.mu.Unlock()
		},
	}
	return r
}

// TestEnvIsolation runs a Tier-2 job (fig7) and a Tier-1 job (fig4)
// concurrently on two Envs. Each run must return the payload a serial
// run returns, and everything it observes — metrics, trace events,
// invariant checks and progress — must land in its own Env's sinks and
// nowhere else. Each Env memoizes its own runs, from cold. Under -race
// it is also the data-race check for two runs sharing the rig pool and
// the memo counters.
func TestEnvIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick grids twice")
	}
	jobs := []string{"fig7", "fig4"}
	want := map[string][]byte{}
	for _, job := range jobs {
		p, err := (&Env{Check: suiteCheck}).RunJob(job, true)
		if err != nil {
			t.Fatal(err)
		}
		if want[job], err = json.Marshal(p); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	runs := make([]*isoRun, len(jobs))
	for i, job := range jobs {
		r := newIsoRun(job)
		runs[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.payload, r.err = r.env.RunJob(r.job, true)
		}()
	}
	wg.Wait()

	tier1 := regexp.MustCompile(`^cpu\d+/`)
	tier2 := regexp.MustCompile(`^vcore\d+/`)
	for _, r := range runs {
		if r.err != nil {
			t.Fatalf("%s: %v", r.job, r.err)
		}
		got, err := json.Marshal(r.payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[r.job]) {
			t.Errorf("%s: concurrent payload differs from the serial run:\n serial:     %.300s\n concurrent: %.300s",
				r.job, want[r.job], got)
		}

		var t1, t2 int
		for k := range r.reg.Snapshot().Counters {
			if tier1.MatchString(k) {
				t1++
			}
			if tier2.MatchString(k) {
				t2++
			}
		}
		if r.job == "fig7" && (t2 == 0 || t1 != 0) {
			t.Errorf("fig7 registry: %d vcore counters (want > 0), %d Tier-1 cpu counters (want 0)", t2, t1)
		}
		if r.job == "fig4" && (t1 == 0 || t2 != 0) {
			t.Errorf("fig4 registry: %d cpu counters (want > 0), %d Tier-2 vcore counters (want 0)", t1, t2)
		}

		if len(r.sweeps) != 1 || !r.sweeps[r.job] {
			t.Errorf("%s: progress named sweeps %v, want only %q", r.job, r.sweeps, r.job)
		}

		if rep := r.col.Report(); !rep.OK() || rep.Checks == 0 {
			t.Errorf("%s: collector ran %d checks with violations:\n%s", r.job, rep.Checks, rep)
		}

		if err := r.env.Obs.Trace.Close(); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(r.buf.Bytes(), &doc); err != nil {
			t.Fatalf("%s: trace is not valid JSON: %v", r.job, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace has no events", r.job)
		}
	}
}

// TestBenchShim checks that the package-level setters bench/ uses reach
// the Env the package-level RunJob runs on, and that successive jobs
// run on that one Env: quick fig2 after quick table2 is answered by the
// sender study and receiver run table2 memoized, the cross-job reuse
// bench's tier1 grid relies on.
func TestBenchShim(t *testing.T) {
	defer func() {
		SetWorkers(0)
		SetObservability(nil)
	}()
	ctx := &obs.Context{Metrics: obs.NewRegistry()}
	SetWorkers(2)
	SetShards(3) // a no-op, kept for bench/
	SetObservability(ctx)
	if e := shimEnv(); e.Workers != 2 || e.Obs != ctx {
		t.Fatalf("shim Env = {Workers: %d, Obs: %p}, want {2, %p}", e.Workers, e.Obs, ctx)
	}
	if _, err := RunJob("worstcase", true); err != nil {
		t.Fatal(err)
	}
	if w := ctx.Metrics.Snapshot().Gauges["sweep/worstcase/workers"]; w != 2 {
		t.Errorf("worstcase sweep ran %g workers, want the shim's 2", w)
	}

	if _, err := RunJob("table2", true); err != nil {
		t.Fatal(err)
	}
	before := CacheStats()
	if _, err := RunJob("fig2", true); err != nil {
		t.Fatal(err)
	}
	gained := memoSince(t, before)
	for _, name := range []string{"tier1/senduipi", "tier1/receiver"} {
		if s := gained[name]; s.Misses != 0 || s.Hits == 0 {
			t.Errorf("fig2 after table2 on the shim: %s gained %d misses and %d hits, want 0 and some", name, s.Misses, s.Hits)
		}
	}
}

// memoSince returns the hits and misses each run memo table gained
// since before; the counters are process-wide and never reset. It also
// checks CacheStats lists the tables sorted by name.
func memoSince(t *testing.T, before CacheStatsSnapshot) map[string]runcache.Stats {
	t.Helper()
	now := CacheStats().Caches
	if !sort.SliceIsSorted(now, func(i, j int) bool { return now[i].Name < now[j].Name }) {
		t.Errorf("CacheStats().Caches not sorted by name: %+v", now)
	}
	out := map[string]runcache.Stats{}
	for i, s := range now {
		b := before.Caches[i]
		out[s.Name] = runcache.Stats{Name: s.Name, Hits: s.Hits - b.Hits, Misses: s.Misses - b.Misses}
	}
	return out
}
