package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"xui/internal/check"
	"xui/internal/sim"
)

// TestDeterministicFingerprint is the end-to-end determinism gate the
// static determinism analyzer (internal/lint) exists to protect: a small
// sweep, run twice in the same process with invariant checking attached
// on the uncached path (so the second pass genuinely re-executes),
// must serialize to byte-identical JSON. Any time.Now, global math/rand,
// environment read or unordered map iteration that slips into a result
// path shows up here as a fingerprint mismatch.
func TestDeterministicFingerprint(t *testing.T) {
	horizon := 2 * sim.Millisecond
	run := func() []byte {
		col := check.NewCollector()
		e := &Env{Workers: 4, NoCache: true, Check: col}
		out := struct {
			Fig4   any
			Fig6   any
			Fig9   any
			Fig7   any
			Table2 any
		}{
			Fig4: e.Fig4(40000),
			Fig6: e.Fig6([]float64{20}, []int{1, 4}, horizon),
			Fig9: e.Fig9([]float64{0, 30}, 100),
			// Fig7 and Table2 carry the delivery-latency percentile
			// columns (exact-integer histogram outputs); including them
			// extends the fingerprint to the streaming-observability
			// histograms.
			Fig7:   e.Fig7([]float64{20000}, horizon),
			Table2: e.Table2(),
		}
		rep := col.Report()
		if rep.Violations != 0 {
			t.Fatalf("%d invariant violations during fingerprint run: %+v", rep.Violations, rep.Items)
		}
		if rep.Checks == 0 {
			t.Fatal("checking was attached but evaluated zero invariants")
		}
		b, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	first := run()
	second := run()
	if !bytes.Equal(first, second) {
		t.Errorf("fingerprint differs between identical in-process runs:\n  first:  %.200s\n  second: %.200s", first, second)
	}
}
