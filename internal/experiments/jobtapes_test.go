//go:build go1.24

package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"weak"

	"xui/internal/isa"
)

// TestJobTapesReleased checks a job's recorded tapes die with the job.
// Weak pointers to the tapes fig4 recorded, taken as its last grid point
// finishes, must be nil after RunJob returns and one GC: neither the Env
// nor a pooled receiver rig (which outlives one GC in the pool's victim
// cache) may still hold them. A second run of the job on the same Env
// records a fresh set and must return the same payload. Eight sweep
// workers share the set, so under -race this is also its concurrency
// check.
func TestJobTapesReleased(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick fig4 grid twice")
	}
	ResetCaches()
	e := &Env{Workers: 8}
	var held []weak.Pointer[isa.Tape]
	e.Progress = func(_ string, done, total int) {
		if done < total {
			return
		}
		set := e.tapes.Load()
		if set == nil {
			t.Error("fig4 finished without a tape set")
			return
		}
		for _, w := range Fig4Workloads {
			// A zero budget fits the recorded tape: a replay, not a recording.
			held = append(held, weak.Make(set.Recorded(w, 1, 0).(*isa.TapeStream).Tape()))
		}
	}
	first, err := e.RunJob("fig4", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != len(Fig4Workloads) {
		t.Fatalf("held %d tapes, want %d", len(held), len(Fig4Workloads))
	}
	runtime.GC()
	for i, p := range held {
		if p.Value() != nil {
			t.Errorf("%s tape still reachable after RunJob returned and a GC", Fig4Workloads[i])
		}
	}

	e.Progress = nil
	second, err := e.RunJob("fig4", true)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("second fig4 run on the same Env differs:\n first:  %s\n second: %s", a, b)
	}
}
