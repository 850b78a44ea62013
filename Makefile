# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet vet-fast test microbench race run-all sweep-profile examples check fuzz fix-annotations serve

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

# Hot-loop microbenchmarks with allocs/op: the sim event kernel, the
# sharded engine's epoch barrier and cross-shard send, and the cpu
# pipeline's decode and block step. End-to-end and
# per-layer timing is bench/run.sh (BENCHMARK.json).
microbench:
	go test -run '^$$' -bench=. -benchmem ./...

race:
	go test -race ./...

# Invariant-checking harness: the checker's detection tests and the
# fault scenarios (experiments' TestFault*) under -race, the always-checked
# experiments suite, then the full default sweep with the checker attached
# (exits nonzero on any violation).
check:
	go test -race ./internal/check
	go test -race -run 'TestFault' ./internal/experiments
	go test ./internal/experiments
	go run ./cmd/xuibench -check

# Smoke-run the Go fuzz targets for 10s each, as CI does (histogram
# percentile and bucket-index round trips, micro-op decode/lift round
# trip, LPM table and event queue against their naive references).
fuzz:
	go test -run '^$$' -fuzz FuzzHistogramPercentile -fuzztime 10s ./internal/stats
	go test -run '^$$' -fuzz FuzzBucketIndex -fuzztime 10s ./internal/stats
	go test -run '^$$' -fuzz FuzzDecodeLift -fuzztime 10s ./internal/isa
	go test -run '^$$' -fuzz FuzzLPMAgainstReference -fuzztime 10s ./internal/lpm
	go test -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s ./internal/sim

# Profile what the benchmark measures: the tier1-grid and tier2-grid
# experiment sets (bench/workloads.go) at full scale, -j 1.
# Writes tier1.cpu.pprof, tier2.cpu.pprof and tier2.mem.pprof.
TIER1_EXPS = table2,fig2,fig4,fig5,worstcase,section2,section35,ablations,duet
TIER2_EXPS = fig6,fig7,fig8,fig9,multiworker,scale
sweep-profile:
	go run ./cmd/xuibench -exp $(TIER1_EXPS) -j 1 -json -cpuprofile tier1.cpu.pprof > /dev/null
	go run ./cmd/xuibench -exp $(TIER2_EXPS) -j 1 -json -cpuprofile tier2.cpu.pprof -memprofile tier2.mem.pprof > /dev/null
	@echo "wrote tier1.cpu.pprof tier2.cpu.pprof tier2.mem.pprof; inspect with: go tool pprof -top tier2.cpu.pprof"

# Regenerate every table and figure from the paper.
run-all:
	go run ./cmd/xuibench

# Boot the experiment daemon with a persistent result store: submissions
# are content-addressed (code version + canonical spec + seed), so
# repeated jobs — including across daemon restarts — are answered from
# disk, byte-identical to the run that produced them (DESIGN.md §14).
serve:
	go run ./cmd/xuiserve -addr 127.0.0.1:8378 -cachedir /tmp/xuicache

examples:
	go run ./examples/quickstart
	go run ./examples/preemption
	go run ./examples/ionotify
	go run ./examples/accel
	go run ./examples/ipc
