package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xui/internal/stats"
)

// chromeTrace mirrors the exported JSON shape for test parsing.
type chromeTrace struct {
	TraceEvents []map[string]any `json:"traceEvents"`
}

func parseTrace(t *testing.T, tr *Tracer) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("export produced invalid JSON: %s", buf.String())
	}
	var ct chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	return ct
}

func TestTracerEventShapes(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(1, "tier1")
	tr.NameThread(1, 0, "core0")
	tr.Span(1, 0, "delivery", "interrupt", 2000, 2400, map[string]any{"k": 1})
	tr.Instant(1, 0, "arrive", "interrupt", 2000, nil)
	tr.Counter(1, "pending", 2000, 3)

	ct := parseTrace(t, tr)
	if len(ct.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(ct.TraceEvents))
	}
	byPh := map[string]map[string]any{}
	for _, e := range ct.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Errorf("event %v missing %q", e, field)
			}
		}
		byPh[e["ph"].(string)] = e
	}
	span := byPh["X"]
	if span["name"] != "delivery" || span["ts"].(float64) != 1.0 || span["dur"].(float64) != 0.2 {
		t.Errorf("span mis-serialised: %v", span)
	}
	inst := byPh["i"]
	if inst["s"] != "t" {
		t.Errorf("instant missing thread scope: %v", inst)
	}
	ctr := byPh["C"]
	if ctr["args"].(map[string]any)["value"].(float64) != 3 {
		t.Errorf("counter mis-serialised: %v", ctr)
	}
}

func TestTracerZeroLengthSpanWidened(t *testing.T) {
	tr := NewTracer()
	tr.Span(1, 0, "x", "", 100, 100, nil)
	ct := parseTrace(t, tr)
	if d := ct.TraceEvents[0]["dur"].(float64); d <= 0 {
		t.Errorf("zero-length span exported with dur=%v", d)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Span(1, 0, "a", "b", 0, 1, nil)
	tr.Instant(1, 0, "a", "b", 0, nil)
	tr.Counter(1, "a", 0, 1)
	tr.NameProcess(1, "p")
	tr.NameThread(1, 0, "t")
	if tr.Enabled() || tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer should be inert")
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatalf("nil export: %v", err)
	}
	if !json.Valid(buf.Bytes()) || !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("nil export not a valid empty trace: %s", buf.String())
	}
}

func TestTracerCap(t *testing.T) {
	tr := &Tracer{MaxEvents: 4}
	for i := 0; i < 10; i++ {
		tr.Instant(1, 0, "e", "", uint64(i), nil)
	}
	if tr.Len() != 4 || tr.Dropped() != 6 {
		t.Fatalf("cap: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.Export(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "droppedEvents") {
		t.Error("dropped count not surfaced in export")
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Inc("cpu0/delivered")
	r.Add("cpu0/delivered", 4)
	r.SetGauge("vcore0/util", 0.5)
	r.Observe("cpu0/e2e_latency", 100)
	r.Observe("cpu0/e2e_latency", 300)

	if r.Counter("cpu0/delivered") != 5 {
		t.Errorf("counter = %d", r.Counter("cpu0/delivered"))
	}
	if r.Gauge("vcore0/util") != 0.5 {
		t.Errorf("gauge = %g", r.Gauge("vcore0/util"))
	}
	if s := r.Snapshot().Histograms["cpu0/e2e_latency"]; s.Count != 2 || s.Mean != 200 {
		t.Errorf("histogram summary = %+v", s)
	}
	names := r.Names()
	if len(names) != 3 {
		t.Errorf("names = %v", names)
	}

	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot round-trip: %v", err)
	}
	if snap.Counters["cpu0/delivered"] != 5 || snap.Histograms["cpu0/e2e_latency"].Count != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Inc("a")
	r.Add("a", 2)
	r.SetGauge("g", 1)
	r.Observe("h", 5)
	r.AddCycleAccount("x/", stats.NewCycleAccount())
	if r.Enabled() || r.Counter("a") != 0 || r.Gauge("g") != 0 || r.Names() != nil {
		t.Fatal("nil registry should be inert")
	}
	var buf bytes.Buffer
	if err := r.Export(&buf); err != nil || !json.Valid(buf.Bytes()) {
		t.Fatalf("nil export: %v %s", err, buf.String())
	}
}

func TestAddCycleAccount(t *testing.T) {
	a := stats.NewCycleAccount()
	a.Charge("notify", 100)
	a.Charge("work", 900)
	r := NewRegistry()
	r.AddCycleAccount("vcore0/cycles/", a)
	if r.Counter("vcore0/cycles/notify") != 100 || r.Counter("vcore0/cycles/work") != 900 {
		t.Errorf("cycle account not imported: %v", r.Snapshot().Counters)
	}
	// Accumulates across repeated snapshots of distinct accounts.
	r.AddCycleAccount("vcore0/cycles/", a)
	if r.Counter("vcore0/cycles/work") != 1800 {
		t.Errorf("second import did not accumulate: %d", r.Counter("vcore0/cycles/work"))
	}
}

func TestPipelineFlushSpanOrder(t *testing.T) {
	tr := NewTracer()
	reg := NewRegistry()
	p := NewPipeline(tr, reg, 1, 0)

	// Replay the flush-strategy lifecycle the cpu core drives.
	p.IntrArrive(1000, "t", 1, "flush")
	p.IntrSquash(1000, 1020, 200)
	p.IntrRefill(1020, 1312)
	p.IntrInject(1312, false)
	p.IntrFirstCommit(1400)
	p.IntrNotifDone(1500)
	p.IntrDeliveryDone(1600)
	p.IntrHandlerStart(1610)
	p.IntrHandlerDone(1650)
	p.IntrUiret(1660)

	ct := parseTrace(t, tr)
	ts := map[string]float64{}
	for _, e := range ct.TraceEvents {
		if e["ph"] == "X" {
			ts[e["name"].(string)] = e["ts"].(float64)
		}
	}
	order := []string{"flush", "refill", "notification", "delivery", "handler", "uiret"}
	for i := 1; i < len(order); i++ {
		a, oka := ts[order[i-1]]
		b, okb := ts[order[i]]
		if !oka || !okb {
			t.Fatalf("missing span %q or %q: %v", order[i-1], order[i], ts)
		}
		if a > b {
			t.Errorf("span %q (ts=%g) after %q (ts=%g)", order[i-1], a, order[i], b)
		}
	}
	if reg.Counter("cpu0/delivered") != 1 || reg.Counter("cpu0/squashed_at_arrival") != 200 {
		t.Errorf("pipeline metrics: %v", reg.Snapshot().Counters)
	}
	if s := reg.Snapshot().Histograms["cpu0/e2e_latency"]; s.Count != 1 || s.Mean != 660 {
		t.Errorf("e2e histogram: %+v", s)
	}
}

func TestSimProbeSampling(t *testing.T) {
	tr := NewTracer()
	reg := NewRegistry()
	p := NewSimProbe(tr, reg, 2)
	p.SampleEvery = 2
	for i := 0; i < 10; i++ {
		p.EventScheduled(uint64(i), uint64(i+1))
		p.EventFired(uint64(i+1), 10-i)
	}
	p.EventCancelled(11)
	if reg.Counter("sim/events_fired") != 10 || reg.Counter("sim/events_scheduled") != 10 ||
		reg.Counter("sim/events_cancelled") != 1 {
		t.Errorf("probe counters: %v", reg.Snapshot().Counters)
	}
	if tr.Len() != 5 {
		t.Errorf("expected 5 sampled counter events, got %d", tr.Len())
	}
}
