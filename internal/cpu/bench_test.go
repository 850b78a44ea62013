package cpu

import (
	"testing"

	"xui/internal/isa"
	"xui/internal/trace"
)

// ilpBlock is a mildly parallel program block used by the benchmarks.
func ilpBlock() []isa.MicroOp {
	return []isa.MicroOp{
		{Class: isa.IntAlu, BoundaryStart: true},
		{Class: isa.IntAlu},
		{Class: isa.IntAlu, Dep1: 2, BoundaryStart: true},
		{Class: isa.Load, Addr: 0x1000, BoundaryStart: true},
		{Class: isa.IntAlu, Dep1: 1, BoundaryStart: true},
		{Class: isa.Store, Addr: 0x2000, Dep1: 1, BoundaryStart: true},
	}
}

// matmulOps collects n micro-ops of the matmul generator: a private tape,
// independent of the process-wide recording registry.
func matmulOps(n int) []isa.MicroOp {
	src := trace.ByName("matmul", 1)
	ops := make([]isa.MicroOp, n)
	for i := range ops {
		ops[i], _ = src.Next()
	}
	return ops
}

// BenchmarkCoreProgramRun measures the steady-state pipeline loop on a plain
// program (no interrupts): fetch → rename → issue → writeback → commit.
// The hot path must not allocate once the replay buffer is warm.
func BenchmarkCoreProgramRun(b *testing.B) {
	block := ilpBlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		core, _ := newTestCore(Tracked, repeat("bench", block, 2000))
		b.StartTimer()
		core.Run(12000, 1_000_000)
	}
}

// BenchmarkCoreBlockStep measures the decoded-tape fast path per
// committed program micro-op — the Tier-1 steady state (block-granular
// fetch, wakeup issue, timing-wheel writeback) that the sweep
// optimizations target. One iteration = one committed program op.
func BenchmarkCoreBlockStep(b *testing.B) {
	block := ilpBlock()
	ops := make([]isa.MicroOp, 0, b.N+8192)
	for len(ops) < b.N+8192 {
		ops = append(ops, block...)
	}
	tape := isa.NewTape("bench", ops)
	core, _ := newTestCore(Tracked, tape.Stream())
	b.ReportAllocs()
	b.ResetTimer()
	core.Run(uint64(b.N), uint64(b.N)*400)
}

// BenchmarkCoreInterruptDelivery measures periodic Tracked deliveries into a
// running program — the per-interrupt path (accept, sequence build, inject,
// retire) reusing the core-owned delivery state.
func BenchmarkCoreInterruptDelivery(b *testing.B) {
	block := ilpBlock()
	handler := smallHandler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		core, _ := newTestCore(Tracked, repeat("bench", block, 4000))
		core.PeriodicInterrupts(200, 400, func() Interrupt {
			return Interrupt{Vector: 7, Handler: handler, Tag: "bench"}
		})
		b.StartTimer()
		core.Run(24000, 4_000_000)
	}
}

// decodeSink keeps BenchmarkDecode's results live.
var decodeSink isa.UOp

// BenchmarkDecode measures lowering one matmul micro-op into its decoded
// execution form, the cost a tape pays once per op when it is first built.
func BenchmarkDecode(b *testing.B) {
	ops := matmulOps(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeSink = isa.Decode(ops[i&4095])
	}
}
