package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"xui/internal/check"
)

// TestShardParity is the sharded engine's determinism contract: the scale
// family's rows must be byte-identical with the Tier-1 run cache on or
// off, and with the full invariant checker attached.
func TestShardParity(t *testing.T) {
	var want []byte
	for _, cache := range []bool{true, false} {
		col := check.NewCollector()
		rows := (&Env{NoCache: !cache, Check: col}).Scale(true)

		if rep := col.Report(); !rep.OK() {
			t.Fatalf("cache=%v: invariant violations:\n%s", cache, rep)
		}
		// The quick topology must still cross shards, or the checker
		// would have no cross-shard traffic to check.
		for _, r := range rows {
			if r.CrossMsgs == 0 || r.Epochs == 0 {
				t.Fatalf("cache=%v: %s row exchanged no cross-shard traffic: %+v", cache, r.Mode, r)
			}
			if r.Completed == 0 || r.AggRecv == 0 {
				t.Fatalf("cache=%v: %s row did no work: %+v", cache, r.Mode, r)
			}
		}
		got, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("rows differ with the run cache off\n cache on:  %s\n cache off: %s", want, got)
		}
	}
}
