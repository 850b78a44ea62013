package experiments

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
)

// TestJobRegistryNames pins the registry's canonical contents: every
// front end (xuibench -json, xuiserve) resolves experiment names here,
// so a silent rename or dropped entry would strand cached results.
func TestJobRegistryNames(t *testing.T) {
	want := []string{"table2", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"worstcase", "section2", "section35", "ablations", "multiworker", "duet",
		"scale"}
	if got := JobNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("JobNames() = %v, want %v", got, want)
	}
	for _, n := range want {
		if !JobKnown(n) {
			t.Errorf("JobKnown(%q) = false", n)
		}
	}
	if JobKnown("nope") {
		t.Error("JobKnown of unknown name = true")
	}
	if _, err := RunJob("nope", true); err == nil {
		t.Error("RunJob of unknown name succeeded")
	}
}

// TestRunJobMatchesDirectCall: the registry's payload for an experiment
// is byte-identical to calling the experiment directly — the property
// that makes daemon-cached results interchangeable with local runs. It
// also exercises the SetProgress hook end to end through a real grid.
func TestRunJobMatchesDirectCall(t *testing.T) {
	ResetCaches()
	var mu sync.Mutex
	progress := map[string][2]int{}
	SetProgress(func(sweep string, done, total int) {
		mu.Lock()
		progress[sweep] = [2]int{done, total}
		mu.Unlock()
	})
	defer SetProgress(nil)

	payload, err := RunJob("fig2", true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(map[string]any{"simulated": Fig2(), "paper": PaperFig2()})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("registry payload differs from direct call:\n%s\nvs\n%s", got, want)
	}

	// A grid experiment streams progress through the hook.
	if _, err := RunJob("worstcase", true); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	p, ok := progress["worstcase"]
	mu.Unlock()
	if !ok {
		t.Fatal("SetProgress hook never fired for the worstcase grid")
	}
	if p[0] != p[1] || p[0] == 0 {
		t.Fatalf("final progress = %d/%d, want complete and nonzero", p[0], p[1])
	}
}
