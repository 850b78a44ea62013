package sweep

import (
	"context"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xui/internal/obs"
)

// TestRunOrdering checks results land by job index regardless of worker
// count or completion order.
func TestRunOrdering(t *testing.T) {
	jobs := make([]int, 100)
	for i := range jobs {
		jobs[i] = i
	}
	for _, workers := range []int{1, 2, 8, 33} {
		got := Run(jobs, workers, func(i, job int) int {
			if i != job {
				t.Errorf("fn called with index %d for job %d", i, job)
			}
			return job * job
		})
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(jobs))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunEmptyAndDefaults checks the degenerate inputs.
func TestRunEmptyAndDefaults(t *testing.T) {
	if got := Run(nil, 4, func(int, struct{}) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty jobs returned %d results", len(got))
	}
	// Workers <= 0 means GOMAXPROCS; just confirm all jobs still run.
	got := Run([]int{1, 2, 3}, 0, func(_ int, j int) int { return j * 10 })
	for i, want := range []int{10, 20, 30} {
		if got[i] != want {
			t.Fatalf("result[%d] = %d, want %d", i, got[i], want)
		}
	}
}

// TestPanicPropagation checks a job panic is re-raised on the caller with
// the job index, and that the lowest-indexed panic wins deterministically.
func TestPanicPropagation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, "job 3") || !strings.Contains(msg, "boom") {
			t.Fatalf("panic message missing job context: %q", msg)
		}
	}()
	jobs := make([]int, 8)
	Run(jobs, 4, func(i int, _ int) int {
		if i == 3 {
			panic("boom")
		}
		return i
	})
}

// TestCancellation checks workers stop claiming jobs once the context is
// done and RunOpts reports the context error.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	jobs := make([]int, 1000)
	results, err := RunOpts(jobs, Options{Workers: 2, Ctx: ctx}, func(i int, _ int) int {
		if started.Add(1) == 2 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i + 1
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("results length %d, want %d (zero-filled)", len(results), len(jobs))
	}
	n := started.Load()
	if n >= int64(len(jobs)) {
		t.Fatalf("cancellation did not stop the pool: %d jobs started", n)
	}
}

// TestProgressCallback checks OnProgress fires once per job with a
// monotonically complete count.
func TestProgressCallback(t *testing.T) {
	var calls int
	last := 0
	_, err := RunOpts(make([]int, 17), Options{Workers: 4, OnProgress: func(done, total int) {
		calls++
		if total != 17 {
			t.Errorf("total = %d, want 17", total)
		}
		if done < 1 || done > 17 {
			t.Errorf("done = %d out of range", done)
		}
		last = done
	}}, func(i int, _ int) int { return i })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 17 {
		t.Fatalf("OnProgress called %d times, want 17", calls)
	}
	if last == 0 {
		t.Fatal("OnProgress never saw a completed job")
	}
}

// TestProgressPanicCaptured pins the daemon-critical fix: a panicking
// OnProgress callback (e.g. a progress write to a disconnected HTTP
// client) must not unwind a worker goroutine — that would kill the
// whole process. Instead it is captured and re-raised on the calling
// goroutine, where a recover() works, and the pool stops cleanly.
func TestProgressPanicCaptured(t *testing.T) {
	ctx := tracedContext()
	var jobsRun atomic.Int64
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("progress panic was swallowed")
			}
			msg, ok := r.(string)
			if !ok {
				t.Fatalf("panic value %T, want string", r)
			}
			if !strings.Contains(msg, "progress callback") || !strings.Contains(msg, "client gone") {
				t.Fatalf("panic message missing progress context: %q", msg)
			}
		}()
		RunOpts(make([]int, 64), Options{
			Workers: 4,
			Name:    "progress-panic",
			Obs:     ctx,
			OnProgress: func(done, total int) {
				if done == 3 {
					panic("client gone")
				}
			},
		}, func(i int, _ int) int {
			jobsRun.Add(1)
			return i
		})
	}()
	if n := jobsRun.Load(); n >= 64 {
		t.Errorf("pool kept claiming after the progress panic: %d jobs ran", n)
	}
	// The failed sweep must not leave phantom remaining work behind.
	if eta := ctx.Metrics.Gauge("sweep/progress-panic/eta_ms"); eta != 0 {
		t.Errorf("eta_ms = %v after panicked sweep, want 0", eta)
	}
}

// TestEtaResetOnCancellation: a cancelled sweep zeroes its ETA gauge
// instead of reporting its last nonzero projection forever.
func TestEtaResetOnCancellation(t *testing.T) {
	ctx := tracedContext()
	cctx, cancel := context.WithCancel(context.Background())
	_, err := RunOpts(make([]int, 500), Options{Workers: 2, Name: "eta", Obs: ctx, Ctx: cctx},
		func(i int, _ int) int {
			if i == 1 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return i
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if eta := ctx.Metrics.Gauge("sweep/eta/eta_ms"); eta != 0 {
		t.Errorf("eta_ms = %v after cancelled sweep, want 0", eta)
	}
}

// TestObservabilityWiring checks a sweep records spans per job, per-worker
// counter tracks, and registry counters under the sweep namespace.
func TestObservabilityWiring(t *testing.T) {
	ctx := tracedContext()
	_, err := RunOpts(make([]int, 9), Options{Workers: 3, Name: "fig4", Obs: ctx},
		func(i int, _ int) int { return i })
	if err != nil {
		t.Fatal(err)
	}
	if got := ctx.Metrics.Counter("sweep/fig4/jobs_done"); got != 9 {
		t.Fatalf("jobs_done = %d, want 9", got)
	}
	if got := ctx.Metrics.Counter("sweep/fig4/jobs_total"); got != 9 {
		t.Fatalf("jobs_total = %d, want 9", got)
	}
	if got := ctx.Metrics.Gauge("sweep/fig4/workers"); got != 3 {
		t.Fatalf("workers gauge = %v, want 3", got)
	}
	var perWorker uint64
	for w := 0; w < 3; w++ {
		perWorker += ctx.Metrics.Counter("sweep/fig4/worker" + string(rune('0'+w)) + "/jobs")
	}
	if perWorker != 9 {
		t.Fatalf("per-worker job counters sum to %d, want 9", perWorker)
	}
	// 9 job spans + counter samples + metadata; at minimum the 9 spans.
	if ctx.Trace.Events() < 9 {
		t.Fatalf("trace has %d events, want >= 9", ctx.Trace.Events())
	}
}

// TestDeterministicUnderRace hammers a shared obs sink from many workers;
// run with -race this doubles as the data-race check for the obs layer.
func TestDeterministicUnderRace(t *testing.T) {
	ctx := tracedContext()
	jobs := make([]int, 64)
	for i := range jobs {
		jobs[i] = i
	}
	a := Run(jobs, 8, func(i, j int) uint64 {
		ctx.Metrics.Inc("race/hits")
		ctx.Trace.Instant(obs.SweepPid, uint32(i%8), "hit", "test", uint64(i), nil)
		return uint64(j) * 3
	})
	b := Run(jobs, 1, func(i, j int) uint64 { return uint64(j) * 3 })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result[%d]: parallel %d != serial %d", i, a[i], b[i])
		}
	}
	if got := ctx.Metrics.Counter("race/hits"); got != 64 {
		t.Fatalf("race/hits = %d, want 64", got)
	}
}

// tracedContext returns a context with a live registry and a tracer
// streaming to io.Discard.
func tracedContext() *obs.Context {
	return &obs.Context{Trace: obs.NewStreamTracer(io.Discard), Metrics: obs.NewRegistry()}
}
