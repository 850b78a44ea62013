package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// runRecord is one line of a -record file.
type runRecord struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Traced   bool            `json:"traced"`
	Result   json.RawMessage `json:"result"`
}

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &s, nil
}

// readRecords returns the untraced runs of a -record file, their metric
// values per workload.
func readRecords(path string) (map[string][]map[string]metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]map[string]metric{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec runRecord
		var res result
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := json.Unmarshal(rec.Result, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rec.Traced {
			out[rec.Workload] = append(out[rec.Workload], res.Metrics)
		}
	}
	return out, sc.Err()
}

// verdict judges B against A for one metric. worse is B's median change
// in the metric's bad direction, as a share of A's median; spread is the
// larger of the two sides' interquartile ranges over their medians.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (worse, spread float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return 0, 0, "unresolved"
	}
	worse = (mb - ma) / ma
	if !lowerIsBetter {
		worse = -worse
	}
	for _, xs := range [][]float64{a, b} {
		q1, q3 := quartiles(xs)
		if m := median(xs); m != 0 {
			spread = max(spread, (q3-q1)/m)
		}
	}
	better := func(x, y float64) bool { return (x < y) == lowerIsBetter && x != y }
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && better(y, x)
			allWorse = allWorse && better(x, y)
		}
	}
	switch {
	case spread > bound && !allBetter && !allWorse:
		v = "unresolved"
	case worse > bound:
		v = "worse"
	case worse < -bound:
		v = "better"
	default:
		v = "same"
	}
	return worse, spread, v
}

// compareFiles prints, per workload, every end-to-end metric of run set B
// against run set A with a verdict against the BENCHMARK.json bound. It
// fails when any metric is worse or unresolved.
func compareFiles(specPath, pathA, pathB string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tB median\tdelta\tspread\tbound\truns\tverdict")
	bad := 0
	for _, wl := range spec.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(tw, "%s\t-\t\t\t\t\t\t\t%d/%d\tmissing\n", wl.Name, len(ra), len(rb))
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(ra, m.Name), values(rb, m.Name)
			lower := m.Better == "lower"
			worse, spread, v := verdict(va, vb, lower, m.Bound)
			delta := worse
			if !lower {
				delta = -worse
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.0f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, m.Unit, median(va), median(vb), 100*delta, 100*spread, 100*m.Bound, len(va), len(vb), v)
			if v == "worse" || v == "unresolved" {
				bad++
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) worse, unresolved or missing", bad)
	}
	return nil
}

func values(runs []map[string]metric, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}
