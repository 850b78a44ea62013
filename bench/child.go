package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"xui/internal/experiments"
	"xui/internal/obs"
)

// goStats is a child's Go runtime cost.
type goStats struct {
	AllocGiB    float64 `json:"allocGiB"`
	GCCycles    uint32  `json:"gcCycles"`
	GCPauseMs   float64 `json:"gcPauseMs"`
	HeapPeakMiB float64 `json:"heapPeakMiB"`
}

// heapSampler records the peak of runtime.MemStats.HeapInuse, sampled
// every 100 ms until finish.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64 // written by the sampler goroutine, read after done
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			s.peak = max(s.peak, ms.HeapInuse)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the process's Go runtime totals.
func (s *heapSampler) finish() goStats {
	close(s.stop)
	<-s.done
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{
		AllocGiB:    float64(ms.TotalAlloc) / (1 << 30),
		GCCycles:    ms.NumGC,
		GCPauseMs:   float64(ms.PauseTotalNs) / 1e6,
		HeapPeakMiB: float64(max(s.peak, ms.HeapInuse)) / (1 << 20),
	}
}

// startProfile starts a CPU profile to path ("" profiles nothing) and
// returns the function that stops it.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// emit prints a child's result line for the parent.
func emit(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "result %s\n", data)
	return err
}

// failures counts attempted and failed operations, keeping the first few
// messages.
type failures struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

func (f *failures) fail(err error) {
	f.Failed++
	if len(f.Errors) < 5 {
		f.Errors = append(f.Errors, err.Error())
	}
}

func (f *failures) merge(o failures) {
	f.Attempted += o.Attempted
	f.Failed += o.Failed
	for _, e := range o.Errors {
		if len(f.Errors) < 5 {
			f.Errors = append(f.Errors, e)
		}
	}
}

// modelCounts are the deterministic simulated-work counts an obs registry
// snapshot carries.
type modelCounts struct {
	EventsFired uint64 `json:"eventsFired"`
	Delivered   uint64 `json:"delivered"`
	Tier1P99Cy  uint64 `json:"tier1P99Cy"`
	Tier2P99Cy  uint64 `json:"tier2P99Cy"`
}

func countsFrom(s obs.Snapshot) modelCounts {
	c := modelCounts{
		EventsFired: s.Counters["sim/events_fired"],
		Tier1P99Cy:  s.Histograms[obs.AggDeliveryLatency].P99,
		Tier2P99Cy:  s.Histograms[obs.AggTier2DeliveryWait].P99,
	}
	for k, v := range s.Counters {
		if core, ok := strings.CutSuffix(k, "/delivered"); ok && strings.HasPrefix(core, "cpu") {
			c.Delivered += v
		}
	}
	return c
}

// sweepPoints sums the grid points every sweep in reg has enumerated.
func sweepPoints(reg *obs.Registry) uint64 {
	if reg == nil {
		return 0
	}
	var n uint64
	for k, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(k, "sweep/") && strings.HasSuffix(k, "/jobs_total") {
			n += v
		}
	}
	return n
}

// paperErrPct is the mean |simulated − paper| / paper, in percent, over
// the nonzero top-level anchors of the table2 and fig2 result documents
// present in docs; 0 when neither is present.
func paperErrPct(docs map[string][]byte) float64 {
	var sum float64
	var n int
	for _, name := range []string{"table2", "fig2"} {
		data, ok := docs[name]
		if !ok {
			continue
		}
		var doc struct {
			Results map[string]struct {
				Simulated map[string]any `json:"simulated"`
				Paper     map[string]any `json:"paper"`
			} `json:"results"`
		}
		if json.Unmarshal(data, &doc) != nil {
			continue
		}
		r := doc.Results[name]
		for k, pv := range r.Paper {
			p, ok1 := pv.(float64)
			s, ok2 := r.Simulated[k].(float64)
			if ok1 && ok2 && p != 0 {
				d := (s - p) / p
				if d < 0 {
					d = -d
				}
				sum += d
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// gridOut is what one grid repetition reports.
type gridOut struct {
	failures
	WallS       float64                        `json:"wallS"` // first RunJob → last digest check
	Exps        []expOut                       `json:"exps"`
	Cache       experiments.CacheStatsSnapshot `json:"cache"`
	Go          goStats                        `json:"go"`
	PaperErrPct float64                        `json:"paperErrPct"`
	Model       modelCounts                    `json:"model"`
}

// expOut is one experiment of a repetition.
type expOut struct {
	Name         string  `json:"name"`
	WallS        float64 `json:"wallS"` // RunJob alone
	AllocMiB     float64 `json:"allocMiB"`
	FingerprintS float64 `json:"fingerprintS"`
	Points       uint64  `json:"points"` // traced reps only
}

// gridChild runs one repetition: every listed experiment at full scale
// through experiments.RunJob, each result checked against its golden
// digest. With no experiments it only reports ready (a setup probe).
func gridChild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	exps := fs.String("exps", "", "comma-separated experiments to run at full scale")
	observe := fs.Bool("obs", false, "install an obs metrics registry")
	profile := fs.String("cpuprofile", "", "write a CPU profile here")
	spansOut := fs.String("spans", "", "write harness spans here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	experiments.SetWorkers(1)
	experiments.SetShards(1)
	fmt.Fprintln(stdout, "ready")
	if *exps == "" {
		return nil
	}

	gold, err := loadGolden()
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	stopProfile, err := startProfile(*profile)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	if *observe {
		reg = obs.NewRegistry()
		experiments.SetObservability(&obs.Context{Metrics: reg})
	}
	var spans *spanLog
	if *spansOut != "" {
		spans = &spanLog{}
	}

	var out gridOut
	docs := map[string][]byte{}
	start := time.Now()
	for _, name := range strings.Split(*exps, ",") {
		out.Attempted++
		e, doc, err := gridOp(name, gold, reg, spans)
		out.Exps = append(out.Exps, e)
		if err != nil {
			out.fail(err)
			continue
		}
		docs[name] = doc
	}
	out.WallS = time.Since(start).Seconds()
	if err := stopProfile(); err != nil {
		return err
	}
	out.Go = heap.finish()
	out.Cache = experiments.CacheStats()
	out.PaperErrPct = paperErrPct(docs)
	out.Model = countsFrom(reg.Snapshot())
	if err := writeSpans(*spansOut, spans); err != nil {
		return err
	}
	return emit(stdout, out)
}

// gridOp runs one experiment and checks its result document.
func gridOp(name string, gold golden, reg *obs.Registry, spans *spanLog) (e expOut, doc []byte, err error) {
	e.Name = name
	points := sweepPoints(reg)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc

	sp := spans.begin("experiment", name, 0, -1)
	defer spans.end(sp)
	t0 := time.Now()
	payload, err := runJob(name)
	e.WallS = time.Since(t0).Seconds()
	if err != nil {
		return e, nil, err
	}
	runtime.ReadMemStats(&ms)
	e.AllocMiB = float64(ms.TotalAlloc-alloc) / (1 << 20)
	e.Points = sweepPoints(reg) - points

	fp := spans.begin("fingerprint", name, 0, sp)
	t1 := time.Now()
	doc, err = resultDoc(name, false, payload)
	if err == nil {
		err = gold.check(name, false, doc)
	}
	e.FingerprintS = time.Since(t1).Seconds()
	spans.end(fp)
	return e, doc, err
}

// runJob is experiments.RunJob at full scale with a panic reported as the
// operation's failure.
func runJob(name string) (payload any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s panicked: %v", name, r)
		}
	}()
	return experiments.RunJob(name, false)
}
