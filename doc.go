// Package xui is a from-scratch Go reproduction of "Extended User
// Interrupts (xUI): Fast and Flexible Notification without Polling"
// (ASPLOS 2025): a cycle-level out-of-order pipeline model implementing
// UIPI plus the paper's four extensions (tracked interrupts, hardware
// safepoints, the kernel-bypass timer, interrupt forwarding), a
// discrete-event multi-core system model with the OS half of the contract,
// the workload substrates the paper evaluates on (a user-level runtime
// with work stealing, an LSM key-value store, an LPM router answering as
// DPDK's DIR-24-8 does, NIC and DSA-like accelerator models), and a
// harness regenerating every table and figure in the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for simulated-versus-paper
// results. The root package holds the benchmark harness (bench_test.go)
// and repository-wide quality gates.
package xui
