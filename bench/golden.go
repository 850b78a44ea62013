package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"xui/internal/experiments"
	"xui/internal/report"
)

// goldenJSON holds the sha256 of the xuiserve result document of every
// experiment at the scale a workload runs it, generated with -write-golden.
//
//go:embed golden.json
var goldenJSON []byte

// golden maps scale ("full" or "quick") → experiment → hex sha256.
type golden map[string]map[string]string

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("decoding golden.json: %w", err)
	}
	return g, nil
}

func scaleName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// check compares a result document's digest against the golden one.
func (g golden) check(name string, quick bool, doc []byte) error {
	want, ok := g[scaleName(quick)][name]
	if !ok {
		return fmt.Errorf("%s (%s): no golden digest", name, scaleName(quick))
	}
	if got := digest(doc); got != want {
		return fmt.Errorf("%s (%s): digest %s, golden %s", name, scaleName(quick), got[:12], want[:12])
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// resultDoc renders a payload as the document xuiserve serves for the job
// (the report fingerprint), so a grid op and a served result are checked
// against the same bytes.
func resultDoc(name string, quick bool, payload any) ([]byte, error) {
	doc := report.New("xuiserve")
	doc.Experiment = name
	doc.Quick = quick
	doc.AddResult(name, payload)
	return doc.Fingerprint()
}

// writeGolden computes every digest a workload checks and writes them to
// path.
func writeGolden(path string) error {
	g := golden{"full": {}, "quick": {}}
	add := func(names []string, quick bool) error {
		for _, name := range names {
			payload, err := experiments.RunJob(name, quick)
			if err != nil {
				return err
			}
			doc, err := resultDoc(name, quick, payload)
			if err != nil {
				return err
			}
			g[scaleName(quick)][name] = digest(doc)
		}
		return nil
	}
	if err := add(gridExperiments, false); err != nil {
		return err
	}
	seen := map[string]bool{}
	var quick []string
	for _, name := range append(append([]string{}, primedSpecs...), coldSpecs...) {
		if !seen[name] {
			seen[name] = true
			quick = append(quick, name)
		}
	}
	if err := add(quick, true); err != nil {
		return err
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
