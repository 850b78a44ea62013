package report

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xui/internal/experiments"
)

// TestSession drives the shared front-end lifecycle the way each cmd
// does — flags parsed from a FlagSet, Start, the cmd's run body, Finish —
// for one run body per front end: xuibench's registry job, xuisim's dsa
// scenario and xuitrace's traced Fig. 2, each on the session's Env.
// Every front end's -metrics snapshot carries the cache/ keys, its
// -report records the -j it ran with and the cache section, and its
// -trace is a streamed Chrome trace.
func TestSession(t *testing.T) {
	runs := map[string]func(e *experiments.Env) any{
		"xuibench": func(e *experiments.Env) any {
			p, err := e.RunJob("table2", true)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"xuisim":   func(e *experiments.Env) any { return e.Fig9([]float64{20}, 200) },
		"xuitrace": func(e *experiments.Env) any { return e.TracedFig2() },
	}
	for cmd, run := range runs {
		t.Run(cmd, func(t *testing.T) {
			dir := t.TempDir()
			tracePath := filepath.Join(dir, "trace.json")
			metricsPath := filepath.Join(dir, "metrics.json")
			reportPath := filepath.Join(dir, "report.json")
			fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
			sess := Flags(fs, cmd)
			if err := fs.Parse([]string{"-trace", tracePath, "-metrics", metricsPath, "-report", reportPath, "-j", "3", "-check"}); err != nil {
				t.Fatal(err)
			}
			if err := sess.Start(); err != nil {
				t.Fatal(err)
			}
			e := sess.Env()
			if e.Workers != 3 {
				t.Errorf("Start built an Env with %d sweep workers, want 3", e.Workers)
			}
			if e.Obs == nil || e.Check == nil {
				t.Fatal("Start did not put the observability context and check collector in the Env")
			}
			if err := sess.Finish(cmd, true, map[string]any{cmd: run(e)}); err != nil {
				t.Fatalf("Finish on a clean checked run: %v", err)
			}

			var snap struct {
				Counters map[string]uint64 `json:"counters"`
			}
			readJSON(t, metricsPath, &snap)
			for _, k := range []string{"cache/tapes/recordings", "cache/tapes/replays", "check/checks"} {
				if _, ok := snap.Counters[k]; !ok {
					t.Errorf("-metrics snapshot lacks %s", k)
				}
			}

			var doc struct {
				Cmd     string          `json:"cmd"`
				Workers int             `json:"workers"`
				Cache   json.RawMessage `json:"cache"`
				Results map[string]any  `json:"results"`
				Checks  *struct{}       `json:"checks"`
				Trace   *TraceInfo      `json:"trace"`
			}
			readJSON(t, reportPath, &doc)
			if doc.Cmd != cmd || doc.Workers != 3 || len(doc.Cache) == 0 || doc.Results[cmd] == nil || doc.Checks == nil {
				t.Errorf("report: cmd=%q workers=%d cache=%v results=%d checks=%v",
					doc.Cmd, doc.Workers, len(doc.Cache) > 0, len(doc.Results), doc.Checks != nil)
			}
			if doc.Trace == nil || doc.Trace.Events == 0 || doc.Trace.Path != tracePath {
				t.Errorf("report trace section: %+v", doc.Trace)
			}

			var tr struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			readJSON(t, tracePath, &tr)
			if cmd == "xuitrace" && len(tr.TraceEvents) == 0 {
				t.Error("traced Fig. 2 streamed no events")
			}
		})
	}
}

// TestSessionCheckFailure: a violated invariant makes Finish return an
// error after the run's files are written, instead of exiting.
func TestSessionCheckFailure(t *testing.T) {
	metricsPath := filepath.Join(t.TempDir(), "metrics.json")
	fs := flag.NewFlagSet("xuibench", flag.ContinueOnError)
	sess := Flags(fs, "xuibench")
	if err := fs.Parse([]string{"-metrics", metricsPath, "-check"}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Start(); err != nil {
		t.Fatal(err)
	}
	sess.Env().Check.Violate("injected", 0, "test", "deliberate violation")
	err := sess.Finish("none", false, nil)
	if err == nil || !strings.Contains(err.Error(), "1 invariant violations") {
		t.Fatalf("Finish = %v, want a check failure", err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	readJSON(t, metricsPath, &snap)
	if snap.Counters["check/violations"] != 1 {
		t.Errorf("check/violations = %d, want 1", snap.Counters["check/violations"])
	}
}

// readJSON decodes the JSON file at path into v.
func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
