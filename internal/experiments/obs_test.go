package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"xui/internal/obs"
)

// TestTracedFig2ChromeTrace is the acceptance check for the observability
// layer: tracing the Fig. 2 scenario must produce valid Chrome trace-event
// JSON whose interrupt spans appear in the flush → refill → delivery order
// the paper's timeline describes.
func TestTracedFig2ChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	ctx := &obs.Context{Trace: obs.NewStreamTracer(&buf), Metrics: obs.NewRegistry()}
	r := (&Env{Obs: ctx, Check: suiteCheck}).TracedFig2()
	if r.Arrive == 0 || r.DeliveryDone == 0 {
		t.Fatalf("traced Fig2 returned an empty result: %+v", r)
	}

	if err := ctx.Trace.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("streamed trace is not valid JSON")
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	for _, e := range parsed.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event %v missing required field %q", e, field)
			}
		}
	}

	// First occurrence timestamp of each interrupt-lifecycle span, plus the
	// count of complete deliveries.
	firstTs := map[string]float64{}
	deliveries := 0
	for _, e := range parsed.TraceEvents {
		if e["ph"] != "X" {
			continue
		}
		name := e["name"].(string)
		if name == "uiret" {
			deliveries++
		}
		if _, seen := firstTs[name]; !seen {
			firstTs[name] = e["ts"].(float64)
		}
		if e["pid"].(float64) != float64(obs.Tier1Pid) {
			t.Errorf("span %q on pid %v, want Tier1Pid", name, e["pid"])
		}
	}
	if deliveries == 0 {
		t.Fatal("no completed deliveries (uiret spans) in the trace")
	}

	order := []string{"flush", "refill", "notification", "delivery", "handler", "uiret"}
	for i, name := range order {
		ts, ok := firstTs[name]
		if !ok {
			t.Fatalf("span %q missing from trace; have %v", name, firstTs)
		}
		if i > 0 && firstTs[order[i-1]] > ts {
			t.Errorf("span %q (ts=%g) precedes %q (ts=%g)", name, ts, order[i-1], firstTs[order[i-1]])
		}
	}
}

// TestObservabilityRestored checks that running experiments without
// observability adds no events to a context an earlier run traced into.
func TestObservabilityRestored(t *testing.T) {
	ctx := &obs.Context{Trace: obs.NewStreamTracer(io.Discard), Metrics: obs.NewRegistry()}
	(&Env{Obs: ctx, Check: suiteCheck}).TracedFig2()
	n := ctx.Trace.Events()
	suite.Fig2() // untraced
	if ctx.Trace.Events() != n {
		t.Error("untraced run appended events to a detached context")
	}
}
