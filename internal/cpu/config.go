// Package cpu implements a cycle-stepped out-of-order core timing model —
// the Tier-1 simulator behind the paper's microarchitectural experiments.
//
// The model reproduces the structures that the paper's arguments depend on:
// a reorder buffer with bounded squash bandwidth, an issue queue with
// dataflow wakeup, load/store queues backed by the cache model in
// internal/mem, bounded fetch/issue/retire widths, branch mispredictions
// that squash younger in-flight work, and MSROM microcode injection. On top
// of that it implements the three interrupt delivery strategies the paper
// contrasts — Flush (what Sapphire Rapids does, §3.5), Drain, and the
// paper's contribution, Tracked (§4.2) — plus hardware safepoint gating
// (§4.4).
package cpu

import "xui/internal/isa"

// Engine selects the core's execution machinery. Both engines compute
// the same function — every result, record and timestamp is
// bit-identical — they differ only in how fast they get there, which is
// what the differential tests in differential_test.go pin.
type Engine uint8

const (
	// EngineFast is the decoded-tape engine, the zero value: dataflow
	// wakeup scheduling instead of the scan, direct indexing into
	// decoded tapes, and basic-block fast-forward fetch outside the
	// fidelity window.
	EngineFast Engine = iota
	// EngineInterpreted is the original per-cycle issue-queue scan and
	// per-op stream interpretation. Kept as the reference
	// implementation that the parity tests compare against.
	EngineInterpreted
)

// DefaultFidelityWindow is the lookahead, in cycles, within which an
// expected interrupt arrival forces fetch back to full per-op fidelity
// (see Config.FidelityWindow).
const DefaultFidelityWindow = 256

// Strategy selects how the core reconciles an arriving interrupt with
// in-flight speculative work.
type Strategy uint8

const (
	// Flush squashes all in-flight micro-ops, then injects the interrupt
	// microcode. Minimum latency to redirect, maximum lost work. This is
	// what the paper measures Sapphire Rapids doing (§3.5).
	Flush Strategy = iota
	// Drain stops fetch and waits for every in-flight micro-op to retire
	// before injecting the microcode. No lost work, high latency.
	Drain
	// Tracked injects the interrupt microcode at the next instruction
	// boundary in fetch without disturbing older in-flight work, tracks it
	// with a source bit per ROB entry, and re-injects it if a misprediction
	// squash throws it away before its first micro-op commits (§4.2).
	Tracked
	// LegacyGem5 reproduces stock gem5's interrupt model, which the paper
	// discovered is "quite different from real hardware": it drains the
	// pipeline instead of flushing, and artificially adds a fixed 13
	// cycles after each drain (§5.2). Kept as an ablation to show why the
	// authors replaced it.
	LegacyGem5
)

func (s Strategy) String() string {
	switch s {
	case Flush:
		return "flush"
	case Drain:
		return "drain"
	case Tracked:
		return "tracked"
	case LegacyGem5:
		return "legacy-gem5"
	}
	return "strategy?"
}

// Config holds the core parameters. DefaultConfig matches the paper's
// Table 3 baseline processor.
type Config struct {
	FetchWidth  int // micro-ops fetched+renamed per cycle
	DecodeWidth int // (folded into fetch; kept for reporting)
	IssueWidth  int // micro-ops issued per cycle
	RetireWidth int // micro-ops committed per cycle
	SquashWidth int // micro-ops removed per cycle on a squash

	ROBSize int
	IQSize  int
	LQSize  int
	SQSize  int

	IntALUs    int
	IntMults   int
	FPUs       int // combined FPALU/Mult per Table 3
	LoadPorts  int
	StorePorts int

	// FrontEndDepth is the redirect penalty in cycles: after a squash or a
	// control-flow redirect, this many cycles pass before renamed micro-ops
	// re-enter the window.
	FrontEndDepth int

	// FlushEntryPenalty is the extra serialization cost of conventional
	// (flush-based) interrupt entry: interrupt entry is architecturally
	// serializing and restarts the microcode sequencer. Tracked delivery
	// does not pay it.
	FlushEntryPenalty int

	// MispredictRate is consulted only by trace generators; the pipeline
	// honours the per-op Mispredict annotation.

	// Strategy is the interrupt delivery strategy.
	Strategy Strategy

	// SafepointMode delivers interrupts only at safepoint instruction
	// boundaries (§4.4).
	SafepointMode bool

	// TrackedReinject enables the front-end recovery state machine that
	// re-injects interrupt microcode squashed by a misprediction. Disabling
	// it is an ablation: interrupts can then be lost (the model counts
	// them). The real design always re-injects.
	TrackedReinject bool

	// Ucode supplies the microcode routines for interrupt delivery.
	Ucode UcodeSet

	// Engine selects the execution machinery (identical results either
	// way); the zero value is EngineFast.
	Engine Engine

	// FidelityWindow bounds how close, in cycles, the next known
	// interrupt arrival may be before fetch abandons block-granular
	// fast-forward for the per-op path. It is machinery, not model: both
	// paths rename identically, so results do not depend on its value —
	// a contract the differential tests exercise at several window
	// sizes. 0 means DefaultFidelityWindow.
	FidelityWindow uint64
}

// UcodeSet is the MSROM contents relevant to user interrupts. The routines
// are built in internal/uintr and injected by the pipeline.
type UcodeSet struct {
	// Notification is the notification-processing routine: reads the UPID
	// (a cross-core shared line), clears ON, reads PIR into UIRR. Skipped
	// for KB_Timer and forwarded device interrupts (§4.3, §4.5).
	Notification isa.Routine
	// Delivery pushes SP/PC/vector to the stack, clears UIF and jumps to
	// the handler.
	Delivery isa.Routine
	// Uiret pops state and re-enables delivery.
	Uiret isa.Routine
}

// DefaultConfig returns the Table 3 baseline.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    6,
		DecodeWidth:   6,
		IssueWidth:    10,
		RetireWidth:   10,
		SquashWidth:   10,
		ROBSize:       384,
		IQSize:        168,
		LQSize:        128,
		SQSize:        72,
		IntALUs:       6,
		IntMults:      2,
		FPUs:          3,
		LoadPorts:     3,
		StorePorts:    2,
		FrontEndDepth: 12,
		// Calibrated against the paper's Figure 2: 424 cycles elapse on
		// Sapphire Rapids between the last program instruction and the
		// first observable notification-processing event — far more than
		// squash (≤38 cycles at width 10) plus front-end refill. The
		// remainder is the serializing interrupt entry and microcode
		// sequencer restart, charged here.
		FlushEntryPenalty: 280,
		Strategy:          Flush,
		TrackedReinject:   true,
	}
}

// Execution latencies live in isa.Decode's per-class defaults now; the
// pipeline reads them pre-resolved from each decoded op.

// MemPort is the pipeline's view of the memory system. internal/mem
// satisfies it directly for a private hierarchy; multi-core machines wire a
// per-core adapter over mem.System so Shared accesses hit the coherence
// model.
type MemPort interface {
	Load(addr uint64) int
	Store(addr uint64) int
	SharedLoad(addr uint64) int
	SharedStore(addr uint64) int
}

// PrivatePort adapts a single mem.Hierarchy-like loader to MemPort, mapping
// shared accesses to a fixed cross-core cost. Useful for single-core
// studies where the remote writer is modelled, not simulated.
type PrivatePort struct {
	H interface {
		Load(addr uint64) int
		Store(addr uint64) int
	}
	// SharedCost is charged for shared loads whose line a remote core has
	// dirtied; PendingRemote toggles that state (the driver sets it when a
	// modelled sender "writes" the UPID or poll flag).
	SharedCost    int
	PendingRemote map[uint64]bool
}

// Load implements MemPort.
func (p *PrivatePort) Load(addr uint64) int { return p.H.Load(addr) }

// Store implements MemPort.
func (p *PrivatePort) Store(addr uint64) int { return p.H.Store(addr) }

// SharedLoad implements MemPort.
func (p *PrivatePort) SharedLoad(addr uint64) int {
	line := addr / 64
	if p.PendingRemote[line] {
		delete(p.PendingRemote, line)
		return p.SharedCost
	}
	return p.H.Load(addr)
}

// SharedStore implements MemPort.
func (p *PrivatePort) SharedStore(addr uint64) int { return p.H.Store(addr) }

// MarkRemoteWrite records that a remote agent dirtied the line holding addr,
// so the core's next shared load pays the transfer.
func (p *PrivatePort) MarkRemoteWrite(addr uint64) {
	if p.PendingRemote == nil {
		p.PendingRemote = make(map[uint64]bool)
	}
	p.PendingRemote[addr/64] = true
}
