// Command bench is the repository benchmark. It regenerates the paper's
// experiment grids through the shared job registry (experiments.RunJob,
// the code path behind `xuibench -json` and xuiserve) and drives the
// xuiserve daemon through its public server.New/Handler API. Every grid
// repetition and every daemon runs in a fresh child process re-executed
// from this binary, so process-global caches start cold as they do for a
// user.
//
// Run it from the repository root through the wrapper, which builds the
// harness from source into .bench_build/:
//
//	bash bench/run.sh --workload tier1-grid --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end set; with --trace 1 they are the per-layer set, and the
// run also writes a CPU-profile package breakdown, per-layer JSON and a
// Chrome trace of the harness spans under --trace-dir. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// childEnv selects a child role ("grid" or "serve") when set; the parent
// sets it on every process it re-executes from its own binary.
const childEnv = "XUIBENCH_CHILD"

func main() {
	if kind := os.Getenv(childEnv); kind != "" {
		os.Exit(childMain(kind, os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the parent entry point. It returns the process exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed (serve spec seeds and request mix)")
	seconds := fs.Float64("seconds", 15, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where a traced run writes its profile, spans and per-layer JSON")
	record := fs.String("record", "", "append this run's result as one JSON line to `file` (input for -compare)")
	compare := fs.Bool("compare", false, "compare two -record files given as arguments: A B")
	writeGold := fs.String("write-golden", "", "compute every golden digest and write them to `file` (bench/golden.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files: A B")
			return 2
		}
		if err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *writeGold != "":
		if err := writeGolden(*writeGold); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	p := w.plan(*seed, *seconds, *trace == 1)
	if p.traced {
		p.traceDir = filepath.Join(*traceDir, w.name)
	}
	res, err := execute(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encoding result:", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, w.name, *seed, p.traced, line); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// appendRecord appends one run to a -compare input file.
func appendRecord(path, workload string, seed uint64, traced bool, result json.RawMessage) error {
	line, err := json.Marshal(runRecord{Workload: workload, Seed: seed, Traced: traced, Result: result})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recording run: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("recording run: %w", err)
	}
	return f.Close()
}

// childMain runs one child role and returns its exit code.
func childMain(kind string, args []string) int {
	var err error
	switch kind {
	case "grid":
		err = gridChild(args, os.Stdout)
	case "serve":
		err = serveChild(args, os.Stdout)
	default:
		err = errors.New("unknown child role " + kind)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench %s child: %v\n", kind, err)
		return 1
	}
	return 0
}
