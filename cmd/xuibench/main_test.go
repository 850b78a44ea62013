package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"xui/internal/experiments"
	"xui/internal/report"
)

// TestFrontEndParity: for every registered experiment at quick scale, the
// rows text mode embeds in a -report document, the -json payload and the
// xuiserve result document (built as server.runJob builds it) are
// byte-identical, and the text tables open with the experiment's header.
func TestFrontEndParity(t *testing.T) {
	for _, name := range experiments.JobNames() {
		t.Run(name, func(t *testing.T) {
			var text bytes.Buffer
			payloads, err := runExperiments(&text, []string{name}, true, false)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitN(text.String(), "\n", 4)
			if len(lines) < 4 || lines[0] != "" || lines[1] == "" || lines[2] != strings.Repeat("=", len(lines[1])) {
				t.Fatalf("text output does not open with a header:\n%s", text.String())
			}
			rep := report.New("xuibench")
			rep.AddResult(name, payloads[name])
			var doc bytes.Buffer
			if err := rep.Write(&doc); err != nil {
				t.Fatal(err)
			}
			textRows := resultRows(t, doc.Bytes(), name)

			var js bytes.Buffer
			payloads, err = runExperiments(&js, []string{name}, true, true)
			if err != nil {
				t.Fatal(err)
			}
			var byName map[string]json.RawMessage
			if err := json.Unmarshal(js.Bytes(), &byName); err != nil {
				t.Fatalf("-json output: %v", err)
			}
			jsonRows := compact(t, byName[name])

			// -json mode's payload is experiments.RunJob's, the call
			// server.runJob fingerprints.
			served := report.New("xuiserve")
			served.Experiment = name
			served.Quick = true
			served.AddResult(name, payloads[name])
			fp, err := served.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			servedRows := resultRows(t, fp, name)

			if !bytes.Equal(textRows, jsonRows) {
				t.Errorf("text -report rows differ from -json rows:\n%s\nvs\n%s", textRows, jsonRows)
			}
			if !bytes.Equal(jsonRows, servedRows) {
				t.Errorf("-json rows differ from the xuiserve document's:\n%s\nvs\n%s", jsonRows, servedRows)
			}
		})
	}
}

// resultRows extracts one experiment's rows from a report document.
func resultRows(t *testing.T, doc []byte, name string) []byte {
	t.Helper()
	var d struct {
		Results map[string]json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		t.Fatalf("report document: %v", err)
	}
	return compact(t, d.Results[name])
}

// compact strips insignificant whitespace, leaving every token's bytes.
func compact(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	if len(raw) == 0 {
		t.Fatal("no rows")
	}
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
