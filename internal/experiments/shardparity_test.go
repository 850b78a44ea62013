package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"xui/internal/check"
	"xui/internal/obs"
)

// TestShardParity is the sharded engine's determinism contract: the scale
// family's rows must be byte-identical at every engine width, with the
// Tier-1 run cache on or off, and with the full invariant checker attached
// (CI runs this under -race, so it also proves the epoch protocol's
// happens-before edges are the only synchronization the shards need).
func TestShardParity(t *testing.T) {
	for _, cache := range []bool{true, false} {
		var want []byte
		for _, width := range []int{1, 4, 16} {
			col := check.NewCollector()
			rows := (&Env{Shards: width, NoCache: !cache, Check: col}).Scale(true)

			if rep := col.Report(); !rep.OK() {
				t.Fatalf("cache=%v width=%d: invariant violations:\n%s", cache, width, rep)
			}
			got, err := json.Marshal(rows)
			if err != nil {
				t.Fatal(err)
			}
			if width == 1 {
				want = got
				// The quick topology must still cross shards, or parity
				// would hold vacuously.
				for _, r := range rows {
					if r.CrossMsgs == 0 || r.Epochs == 0 {
						t.Fatalf("cache=%v: %s row exchanged no cross-shard traffic: %+v", cache, r.Mode, r)
					}
					if r.Completed == 0 || r.AggRecv == 0 {
						t.Fatalf("cache=%v: %s row did no work: %+v", cache, r.Mode, r)
					}
				}
				continue
			}
			if !bytes.Equal(want, got) {
				t.Errorf("cache=%v: rows at width %d differ from width 1\n width 1: %s\n width %d: %s",
					cache, width, want, width, got)
			}
		}
	}
}

// TestShardTraceParity pins the per-shard tracer lanes' merge: every shard
// records into its own lane, and the epoch barrier absorbs the lanes into
// the streaming root in shard order, so the Tier-2 events of a traced
// scale run are identical at engine width 1 and 4. CI runs this under
// -race too, which checks the barrier-time absorb against the shard
// workers.
func TestShardTraceParity(t *testing.T) {
	tier2 := func(width int) []json.RawMessage {
		var buf bytes.Buffer
		ctx := &obs.Context{Trace: obs.NewStreamTracer(&buf)}
		(&Env{Shards: width, Obs: ctx, Check: suiteCheck}).Scale(true)
		if err := ctx.Trace.Close(); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("width %d: trace is not valid JSON: %v", width, err)
		}
		var out []json.RawMessage
		for _, raw := range doc.TraceEvents {
			var e struct {
				Pid uint32 `json:"pid"`
			}
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			if e.Pid == obs.Tier2Pid {
				out = append(out, raw)
			}
		}
		return out
	}

	want := tier2(1)
	if len(want) == 0 {
		t.Fatal("traced scale run recorded no Tier-2 events")
	}
	got := tier2(4)
	if len(got) != len(want) {
		t.Fatalf("width 4 recorded %d Tier-2 events, width 1 recorded %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("Tier-2 event %d differs at width 4:\n width 1: %s\n width 4: %s", i, want[i], got[i])
		}
	}
}
