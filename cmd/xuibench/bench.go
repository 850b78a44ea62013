package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"xui/internal/cpu"
	"xui/internal/experiments"
	"xui/internal/isa"
	"xui/internal/mem"
	"xui/internal/obs"
	"xui/internal/shard"
	"xui/internal/sim"
	"xui/internal/trace"
)

// benchSchema identifies the perf-record layout. /2 added the Tails
// section (aggregate latency-histogram percentiles); /1 records parse as
// a /2 record with no tails, so old baselines keep working.
const benchSchema = "xuibench-bench/2"

// benchRecord is the machine-readable perf record -benchjson emits: wall
// time per experiment at the configured worker count, ns/op and allocs/op
// microbenchmarks of the simulation kernel's hot loops, and the tail
// percentiles of the aggregate latency histograms. Committed baselines
// (BENCH_sweep.json) let perf regressions show up in review as JSON diffs
// and let -benchgate fail the build on them.
type benchRecord struct {
	Schema      string       `json:"schema"` // benchSchema
	Workers     int          `json:"workers"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	GoOS        string       `json:"goos"`
	GoArch      string       `json:"goarch"`
	Quick       bool         `json:"quick"`
	CacheOn     bool         `json:"cacheOn"`
	TotalMs     float64      `json:"totalMs"`
	Experiments []expTiming  `json:"experiments"`
	HotLoops    []hotLoopRow `json:"hotLoops"`
	// Tails carries the run's aggregate latency-histogram percentiles
	// (simulated cycles, deterministic across worker counts) so the perf
	// trajectory tracks tail latency alongside wall time.
	Tails []tailRow `json:"tails,omitempty"`
	// Cache reports what the run-redundancy layer absorbed: per-cache
	// hit/miss/dedup counts and the tape registry's footprint.
	Cache experiments.CacheStatsSnapshot `json:"cache"`
}

type expTiming struct {
	Name   string  `json:"name"`
	WallMs float64 `json:"wallMs"`
}

type hotLoopRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
}

// tailRow is one aggregate latency histogram's digest in the perf record.
// Values are simulated cycles: exact-integer bucket outputs, byte-identical
// at any -j, so a delta against the baseline is a real model change.
type tailRow struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
	P50   uint64 `json:"p50"`
	P99   uint64 `json:"p99"`
	P999  uint64 `json:"p999"`
	Max   uint64 `json:"max"`
}

// benchTailNames is the fixed set of aggregate histograms the record
// tracks, in output order.
var benchTailNames = []string{
	obs.AggDeliveryLatency,
	obs.AggEndToEndLatency,
	obs.AggHandlerOccupancy,
	obs.AggNotifToCommit,
	obs.AggTier2DeliveryWait,
}

// collectTails reads the aggregate latency histograms out of the registry;
// histograms that never observed a value are omitted.
func collectTails(reg *obs.Registry) []tailRow {
	if !reg.Enabled() {
		return nil
	}
	var out []tailRow
	for _, n := range benchTailNames {
		s := reg.HistogramSummary(n)
		if s.Count == 0 {
			continue
		}
		out = append(out, tailRow{Name: n, Count: s.Count, P50: s.P50, P99: s.P99, P999: s.P999, Max: s.Max})
	}
	return out
}

// runBenchJSON runs the selected experiments (printing their normal output)
// while timing each, benchmarks the sim hot loops, collects the aggregate
// latency tails, and writes the record. It returns the experiment payloads
// for the unified report. With basePath set it prints per-experiment
// wall-time and tail-latency deltas against the committed baseline record
// (the Makefile's bench-delta target), and with gatePct > 0 it errors when
// total wall time or any tail p99 regresses past the gate.
func runBenchJSON(path, basePath string, gatePct float64, selected []string, reg *obs.Registry, quick bool, workers int) (map[string]any, error) {
	rec := benchRecord{
		Schema:     benchSchema,
		Workers:    workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		Quick:      quick,
		CacheOn:    experiments.CachingEnabled(),
	}
	payloads := map[string]any{}
	total := time.Now()
	for _, n := range selected {
		start := time.Now()
		payload, err := experiments.RenderJob(os.Stdout, n, quick)
		if err != nil {
			return nil, err
		}
		payloads[n] = payload
		rec.Experiments = append(rec.Experiments, expTiming{
			Name:   n,
			WallMs: float64(time.Since(start).Microseconds()) / 1000,
		})
	}
	rec.TotalMs = float64(time.Since(total).Microseconds()) / 1000
	rec.HotLoops = benchHotLoops()
	rec.Tails = collectTails(reg)
	rec.Cache = experiments.CacheStats()

	f, err := os.Create(path)
	if err != nil {
		return payloads, err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return payloads, err
	}
	if err := f.Close(); err != nil {
		return payloads, err
	}
	if basePath != "" {
		return payloads, printBenchDelta(rec, basePath, gatePct)
	}
	return payloads, nil
}

// printBenchDelta compares a fresh record against a committed baseline and
// prints per-experiment wall-time deltas (negative = faster than baseline)
// plus tail-latency deltas for the aggregate histograms. With gatePct > 0
// it returns an error when the matched wall time or any tail p99 regresses
// by more than that percentage — the bench-delta regression gate.
func printBenchDelta(rec benchRecord, basePath string, gatePct float64) error {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base benchRecord
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", basePath, err)
	}
	baseMs := make(map[string]float64, len(base.Experiments))
	for _, e := range base.Experiments {
		baseMs[e.Name] = e.WallMs
	}
	fmt.Printf("\nwall-time deltas vs %s (workers: base %d, now %d)\n", basePath, base.Workers, rec.Workers)
	fmt.Printf("%-12s %10s %10s %8s\n", "experiment", "base", "now", "delta")
	// The wall gate compares matched sums — base and fresh times summed
	// over only the experiments this run executed — so gating a subset
	// (the CI Tier-1 gate) against a full-sweep baseline compares like
	// with like instead of a subset total against the whole sweep.
	var baseSum, recSum float64
	for _, e := range rec.Experiments {
		b, ok := baseMs[e.Name]
		if !ok || b == 0 {
			fmt.Printf("%-12s %10s %8.1fms %8s\n", e.Name, "-", e.WallMs, "new")
			continue
		}
		baseSum += b
		recSum += e.WallMs
		fmt.Printf("%-12s %8.1fms %8.1fms %+7.1f%%\n", e.Name, b, e.WallMs, 100*(e.WallMs-b)/b)
	}
	var wallPct float64
	if baseSum > 0 {
		wallPct = 100 * (recSum - baseSum) / baseSum
		fmt.Printf("%-12s %8.1fms %8.1fms %+7.1f%%\n", "matched", baseSum, recSum, wallPct)
	}

	baseTails := make(map[string]tailRow, len(base.Tails))
	for _, t := range base.Tails {
		baseTails[t.Name] = t
	}
	var regressions []string
	if len(rec.Tails) > 0 {
		fmt.Printf("\ntail-latency deltas (simulated cycles)\n")
		fmt.Printf("%-26s %10s %10s %8s %10s\n", "histogram", "base p99", "now p99", "delta", "max")
		for _, t := range rec.Tails {
			b, ok := baseTails[t.Name]
			if !ok || b.P99 == 0 {
				// schema/1 baselines carry no tails: show the fresh values
				// and leave the gate to the next baseline refresh.
				fmt.Printf("%-26s %10s %8dcy %8s %8dcy\n", t.Name, "-", t.P99, "new", t.Max)
				continue
			}
			pct := 100 * (float64(t.P99) - float64(b.P99)) / float64(b.P99)
			fmt.Printf("%-26s %8dcy %8dcy %+7.1f%% %8dcy\n", t.Name, b.P99, t.P99, pct, t.Max)
			if gatePct > 0 && pct > gatePct {
				regressions = append(regressions,
					fmt.Sprintf("%s p99 %+.1f%% (%d -> %d cycles)", t.Name, pct, b.P99, t.P99))
			}
		}
	}
	if gatePct > 0 {
		if baseSum > 0 && wallPct > gatePct {
			regressions = append(regressions,
				fmt.Sprintf("matched wall time %+.1f%% (%.1f -> %.1f ms)", wallPct, baseSum, recSum))
		}
		if len(regressions) > 0 {
			return fmt.Errorf("bench gate (>%.0f%% regression) failed:\n  %s",
				gatePct, strings.Join(regressions, "\n  "))
		}
		fmt.Printf("\nbench gate: ok (no regression above %.0f%%)\n", gatePct)
	}
	return nil
}

// benchHotLoops microbenchmarks the event-kernel hot paths (mirroring the
// BenchmarkSim* suite in internal/sim) so the record captures per-op cost
// and allocation behaviour alongside the wall times.
func benchHotLoops() []hotLoopRow {
	row := func(name string, r testing.BenchmarkResult) hotLoopRow {
		return hotLoopRow{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}
	var fn sim.Handler = func(sim.Time) {}
	return []hotLoopRow{
		row("sim/event-schedule", testing.Benchmark(func(b *testing.B) {
			s := sim.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.After(1, fn)
				s.Step()
			}
		})),
		row("sim/event-periodic", testing.Benchmark(func(b *testing.B) {
			s := sim.New(1)
			ev := s.Every(10, fn)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			s.Cancel(ev)
		})),
		row("sim/event-cancel", testing.Benchmark(func(b *testing.B) {
			s := sim.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Cancel(s.After(10, fn))
			}
		})),
		// One iteration = one full epoch cycle on a 4-shard engine with one
		// resident event per shard: window computation, per-shard RunBefore,
		// mailbox drain, barrier (mirrors BenchmarkEpochBarrier).
		row("sim/epoch-barrier", testing.Benchmark(func(b *testing.B) {
			const n = 4
			e := shard.New(1, n, 100, 1)
			for i := 0; i < n; i++ {
				i := i
				var tick sim.Handler
				tick = func(now sim.Time) { e.Shard(i).After(100, tick) }
				e.Shard(i).Schedule(1, tick)
			}
			e.RunUntil(1_000)
			b.ReportAllocs()
			b.ResetTimer()
			start := e.Shard(0).Now()
			for i := 0; i < b.N; i++ {
				e.RunUntil(start + sim.Time(i+1)*100)
			}
		})),
		// One iteration = one cross-shard message through the epoch
		// mailboxes: push, barrier merge, destination schedule (mirrors
		// BenchmarkCrossShardSend).
		row("sim/cross-shard-send", testing.Benchmark(func(b *testing.B) {
			e := shard.New(1, 2, 100, 1)
			var h0, h1 sim.Handler
			h0 = func(now sim.Time) { e.Send(0, 1, now+100, h1) } //xui:shardok now+100 == now+lookahead is >= the epoch bound by construction; covers both handlers
			h1 = func(now sim.Time) { e.Send(1, 0, now+100, h0) }
			e.Shard(0).Schedule(1, h0)
			e.RunUntil(1_000)
			b.ReportAllocs()
			b.ResetTimer()
			start := e.Shard(0).Now()
			for i := 0; i < b.N; i++ {
				e.RunUntil(start + sim.Time(i+1)*100)
			}
		})),
		row("cpu/decode", testing.Benchmark(func(b *testing.B) {
			ops := benchOps(4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchUOp = isa.Decode(ops[i&4095])
			}
		})),
		// One iteration = one committed program micro-op through the fast
		// engine over a decoded tape (the Tier-1 steady state).
		row("cpu/block-step", testing.Benchmark(func(b *testing.B) {
			tape := isa.NewTape("bench", benchOps(b.N+8192))
			port := &cpu.PrivatePort{H: mem.NewHierarchy(mem.Config{}), SharedCost: mem.LatCrossCore}
			c := cpu.New(cpu.DefaultConfig(), tape.Stream(), port)
			b.ReportAllocs()
			b.ResetTimer()
			c.Run(uint64(b.N), uint64(b.N)*400)
		})),
		// One iteration = one full warm-state restore: pipeline checkpoint
		// plus cache-hierarchy snapshot, the per-grid-point cost the
		// experiments layer pays instead of re-simulating the warmup.
		row("cpu/checkpoint-restore", testing.Benchmark(func(b *testing.B) {
			tape := isa.NewTape("bench", benchOps(60000))
			hier := mem.NewHierarchy(mem.Config{})
			port := &cpu.PrivatePort{H: hier, SharedCost: mem.LatCrossCore}
			c := cpu.New(cpu.DefaultConfig(), tape.Stream(), port)
			if !c.RunUntil(10000, 50000) {
				b.Fatal("warmup did not reach the checkpoint cycle")
			}
			ck := c.TakeCheckpoint()
			if ck == nil {
				b.Fatal("checkpoint declined")
			}
			ms := hier.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !c.RestoreCheckpoint(ck) || !hier.RestoreSnapshot(ms) {
					b.Fatal("restore failed")
				}
			}
		})),
	}
}

// benchUOp sinks cpu/decode's results so the loop is not dead code.
var benchUOp isa.UOp

// benchOps collects n micro-ops of the matmul generator for the cpu
// hot-loop benchmarks (a private tape, independent of the process-wide
// recording registry and its -nocache switch).
func benchOps(n int) []isa.MicroOp {
	src := trace.ByName("matmul", 1)
	ops := make([]isa.MicroOp, n)
	for i := range ops {
		ops[i], _ = src.Next()
	}
	return ops
}
