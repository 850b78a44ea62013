package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"xui/internal/check"
)

// TestShardParity is the sharded engine's determinism contract: the scale
// family's rows must be byte-identical at every engine width, with the
// Tier-1 run cache on or off, and with the full invariant checker attached
// (CI runs this under -race, so it also proves the epoch protocol's
// happens-before edges are the only synchronization the shards need).
func TestShardParity(t *testing.T) {
	defer SetShards(0)
	defer SetCaching(true)
	defer SetChecking(nil)

	for _, cache := range []bool{true, false} {
		SetCaching(cache)
		var want []byte
		for _, width := range []int{1, 4, 16} {
			SetShards(width)
			col := check.NewCollector()
			SetChecking(col)
			rows := Scale(true)
			SetChecking(nil)

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
