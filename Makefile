# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet vet-fast test bench bench-scale bench-delta bench-gate-tier1 microbench race run-all sweep-profile examples check fuzz fix-annotations serve serve-loadtest

all: build vet test

build:
	go build ./...

# Static checking: go vet plus the project-contract analyzers (xuivet:
# determinism, nilprobe, sgoroutine, noalloc, alias, shardsafe, lockcheck,
# recoversafe — see DESIGN.md §10 and §15).
vet:
	go vet ./...
	go run ./cmd/xuivet ./...

# Incremental xuivet: only re-reports findings in packages whose files
# changed since $(XUIVET_SINCE) (default HEAD — i.e. your uncommitted work),
# closed over reverse imports because interprocedural facts cross package
# boundaries. Same analyzers, same waiver rules, just filtered output; the
# clean-at-HEAD gate in CI still runs the full module.
XUIVET_SINCE ?= HEAD
vet-fast:
	go run ./cmd/xuivet -since $(XUIVET_SINCE) ./...

# Audit the //xui: annotation inventory: lists every noalloc function,
# aliased field and waiver, and exits nonzero on stale waivers (waivers
# that no longer suppress anything and should be deleted).
fix-annotations:
	go run ./cmd/xuivet -annotations

test:
	go test ./...

# Regenerate the committed perf baseline. The sweep engine is parallel
# (-j N fans grid points across workers), but the baseline is deliberately
# pinned to -j 1 and -shards 1: wall times at one worker are comparable
# across machines with different core counts, and a committed baseline
# taken at -j $(nproc) on one contributor's box would make every other
# box's bench-delta read as a phantom regression. Records per-experiment
# wall times, sim hot-loop ns/op and allocs/op (including the sharded
# engine's epoch-barrier and cross-shard-send rows), run-cache statistics,
# and the aggregate latency-histogram tails (simulated cycles,
# machine-independent). The grids timed are the job registry's, the same
# ones -json and xuiserve compute. scale is named explicitly: the registry
# leaves it out of "all" because it measures the sharded engine itself.
bench:
	go run ./cmd/xuibench -exp all,scale -quick -j 1 -shards 1 -benchjson BENCH_sweep.json

# Measure the sharded Tier-2 engine with real parallelism: the scale
# experiments at -shards $(nproc) (every other knob as in bench). Rows are
# byte-identical to the -shards 1 baseline (TestShardParity); only the
# wall times in the JSON move. Writes a side file, never the committed
# baseline — engine-width wall times are machine-specific by nature.
bench-scale:
	go run ./cmd/xuibench -exp scale -quick -j 1 -shards $$(nproc) -benchjson /tmp/xuibench_scale.json
	@echo "wrote /tmp/xuibench_scale.json; compare wallMs against BENCH_sweep.json's scale rows"

# Time the current tree against the committed baseline without touching it:
# prints per-experiment wall-time and tail-latency deltas (negative = better
# than committed) and exits nonzero when total wall time or any aggregate
# p99 regresses by more than 10%.
bench-delta:
	go run ./cmd/xuibench -exp all,scale -quick -j 1 -shards 1 -benchjson /tmp/xuibench_delta.json -benchbase BENCH_sweep.json -benchgate 10

# CI perf gate on the Tier-1-bound subset: the experiments dominated by
# the cycle-stepped pipeline (the fast engine's beneficiaries), timed at
# one worker against the committed baseline. The gate compares matched
# sums — only the experiments this run executed — so the subset gates
# like-for-like against the full-sweep baseline, and fails the build on
# a >10% matched wall-time or tail-p99 regression.
bench-gate-tier1:
	go run ./cmd/xuibench -exp fig4,fig5,section2,section35,ablations,worstcase -quick -j 1 -benchjson /tmp/xuibench_tier1.json -benchbase BENCH_sweep.json -benchgate 10

microbench:
	go test -run '^$$' -bench=. -benchmem ./...

race:
	go test -race ./...

# Invariant-checking harness: the fault-injection suite under -race, the
# always-checked experiments suite, then the full default sweep with the
# checker attached (exits nonzero on any violation).
check:
	go test -race ./internal/check
	go test ./internal/experiments
	go run ./cmd/xuibench -check

# Smoke-run the Go fuzz targets for 10s each (histogram percentile and
# bucket-index round trips).
fuzz:
	go test -run '^$$' -fuzz FuzzHistogramPercentile -fuzztime 10s ./internal/stats
	go test -run '^$$' -fuzz FuzzBucketIndex -fuzztime 10s ./internal/stats

# CPU-profile a full parallel sweep of every experiment.
sweep-profile:
	go run ./cmd/xuibench -exp all -quick -cpuprofile sweep.pprof
	@echo "wrote sweep.pprof; inspect with: go tool pprof sweep.pprof"

# Regenerate every table and figure from the paper.
run-all:
	go run ./cmd/xuibench

# Boot the experiment daemon with a persistent run cache: submissions
# are content-addressed (code version + canonical spec + seed), so
# repeated jobs — including across daemon restarts — are answered from
# disk, byte-identical to the run that produced them (DESIGN.md §14).
serve:
	go run ./cmd/xuiserve -addr 127.0.0.1:8378 -cachedir /tmp/xuicache

# Load-test an in-process daemon with the internal/loadgen closed-loop
# HTTP driver: a cold wave racing the first computation, then a warm
# wave answered entirely from the run cache. Prints both DriveReports
# (throughput, shed counts, latency percentiles) as JSON.
serve-loadtest:
	@go run ./cmd/xuiserve -loadtest -clients 120 -requests 2400

examples:
	go run ./examples/quickstart
	go run ./examples/preemption
	go run ./examples/ionotify
	go run ./examples/accel
	go run ./examples/ipc
