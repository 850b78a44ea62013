package experiments

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"xui/internal/obs"
)

// updateGolden rewrites testdata/quick.golden from the current code:
//
//	go test ./internal/experiments -run TestQuickGolden -update-golden
//
// A change that moves a digest must say which one and why in CHANGES.md.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/quick.golden from this run")

const goldenPath = "testdata/quick.golden"

// goldenTraceKey names the digest of the Tier-2 (pid 2) trace events of a
// quick scale run: every shard kernel's events, epoch by epoch in shard
// order.
const goldenTraceKey = "scale.trace.pid2"

// quickDigests runs every registry entry at quick scale and returns the
// sha256 of each payload's JSON, plus the digest of the pid-2 events of
// a traced, sharded quick scale run.
func quickDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	e := &Env{}
	for _, name := range JobNames() {
		p, err := e.RunJob(name, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = digest(b)
	}

	var buf bytes.Buffer
	ctx := &obs.Context{Trace: obs.NewStreamTracer(&buf)}
	(&Env{Obs: ctx}).Scale(true)
	if err := ctx.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("scale trace is not valid JSON: %v", err)
	}
	var pid2 bytes.Buffer
	for _, raw := range doc.TraceEvents {
		var ev struct {
			Pid uint32 `json:"pid"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Pid == obs.Tier2Pid {
			pid2.Write(raw)
			pid2.WriteByte('\n')
		}
	}
	if pid2.Len() == 0 {
		t.Fatal("traced scale run recorded no Tier-2 events")
	}
	out[goldenTraceKey] = digest(pid2.Bytes())
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestQuickGolden pins every quick payload and one streamed trace to
// committed digests, so "rows byte-identical to the parent" is a test
// rather than a claim. The digests were produced on one architecture
// (recorded in the file); float formatting of math.Log/math.Exp results
// may differ elsewhere, so other architectures skip rather than compare
// loosely.
func TestQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry entry at quick scale")
	}
	if *updateGolden {
		writeGolden(t, quickDigests(t))
		return
	}
	arch, want := readGolden(t)
	if arch != runtime.GOARCH {
		t.Skipf("%s was generated on %s; this is %s", goldenPath, arch, runtime.GOARCH)
	}
	got := quickDigests(t)
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: in %s but not produced by this run", name, goldenPath)
		case g != w:
			t.Errorf("%s: digest %s, golden %s", name, g, w)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: produced by this run but missing from %s (rerun with -update-golden)", name, goldenPath)
		}
	}
}

// readGolden parses the golden file: an "arch <GOARCH>" line, then one
// "<name> <sha256>" line per digest. Lines starting with '#' are comments.
func readGolden(t *testing.T) (string, map[string]string) {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var arch string
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		if k == "arch" {
			arch = v
			continue
		}
		want[k] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if arch == "" {
		t.Fatalf("%s: no arch line", goldenPath)
	}
	return arch, want
}

func writeGolden(t *testing.T, digests map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString("# sha256 of each registry entry's quick payload JSON, and of the pid-2\n")
	b.WriteString("# trace events of a quick scale run. Regenerate with\n")
	b.WriteString("#   go test ./internal/experiments -run TestQuickGolden -update-golden\n")
	fmt.Fprintf(&b, "arch %s\n", runtime.GOARCH)
	for _, name := range append(JobNames(), goldenTraceKey) {
		fmt.Fprintf(&b, "%s %s\n", name, digests[name])
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
