// Package check is the simulator's correctness harness: pluggable invariant
// probes that replay the paper's conservation laws alongside both simulation
// tiers (interrupts sent = delivered + coalesced + pending + lost-with-
// reason; UPID ON/SN legality; occupancy bounds; timer-wheel consistency).
// The seeded fault scenarios in the experiments tests perturb runs with the
// failure modes the paper reasons about (§4.2 misprediction squash, §4.5
// descheduled receivers, wire jitter, ring-full bursts, spurious KB_Timer
// fires). Every injected fault must either be absorbed — invariants hold
// and the degradation shows up in the check/… metrics — or be detected by a
// named invariant; silent divergence is the bug class this package kills.
//
// Probes attach with core.Machine.SetCheck, WrapCore (Tier-1) and
// AttachWheel; all model hooks sit behind nil guards so a detached machine
// pays nothing (BenchmarkCheckDisabled pins the zero-alloc contract).
package check

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xui/internal/obs"
	"xui/internal/sim"
)

// Violation is one failed invariant.
type Violation struct {
	Invariant string   // name from the §DESIGN.md 9 catalogue, e.g. "uirr-conservation"
	Time      sim.Time // simulation time when detected
	Where     string   // checker instance (machine name, core, wheel)
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] t=%d %s: %s", v.Invariant, v.Time, v.Where, v.Detail)
}

// maxStoredViolations caps the Items slice so a systematically broken run
// cannot exhaust memory; the total count keeps incrementing past the cap.
const maxStoredViolations = 100

// Collector aggregates invariant checks, violations and degradation
// counters across any number of checkers. It is safe for concurrent use —
// the sweep engine runs machines on parallel goroutines sharing one
// collector; individual checkers are single-goroutine and report here.
type Collector struct {
	mu         sync.Mutex
	checks     uint64            //xui:guardedby mu
	violations uint64            //xui:guardedby mu
	items      []Violation       //xui:guardedby mu
	counters   map[string]uint64 //xui:guardedby mu
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{counters: make(map[string]uint64)}
}

// Violate records a failed invariant.
func (c *Collector) Violate(invariant string, t sim.Time, where, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations++
	if len(c.items) < maxStoredViolations {
		c.items = append(c.items, Violation{
			Invariant: invariant,
			Time:      t,
			Where:     where,
			Detail:    fmt.Sprintf(format, args...),
		})
	}
}

// Count adds n to a named degradation counter (published under check/…).
func (c *Collector) Count(name string, n uint64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.counters[name] += n
	c.mu.Unlock()
}

// AddChecks adds n to the number of invariant evaluations performed.
func (c *Collector) AddChecks(n uint64) {
	c.mu.Lock()
	c.checks += n
	c.mu.Unlock()
}

// Report is a snapshot of everything collected.
type Report struct {
	Checks     uint64      // invariant evaluations performed
	Violations uint64      // total failures (Items is capped, this is not)
	Items      []Violation // first violations, in detection order
	Counters   map[string]uint64
}

// Report snapshots the collector.
func (c *Collector) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := Report{
		Checks:     c.checks,
		Violations: c.violations,
		Items:      append([]Violation(nil), c.items...),
		Counters:   make(map[string]uint64, len(c.counters)),
	}
	for k, v := range c.counters {
		r.Counters[k] = v
	}
	return r
}

// OK reports whether no invariant failed.
func (r Report) OK() bool { return r.Violations == 0 }

// Invariants returns the distinct invariant names that fired, sorted.
func (r Report) Invariants() []string {
	seen := map[string]bool{}
	for _, v := range r.Items {
		seen[v.Invariant] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// PublishTo exports the report into a metrics registry under "check/".
func (r Report) PublishTo(reg *obs.Registry) {
	reg.Add("check/checks", r.Checks)
	reg.Add("check/violations", r.Violations)
	for k, v := range r.Counters {
		reg.Add("check/"+k, v)
	}
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant evaluations, %d violations", r.Checks, r.Violations)
	if len(r.Items) > 0 {
		fmt.Fprintf(&b, " (showing %d)", len(r.Items))
		for _, v := range r.Items {
			fmt.Fprintf(&b, "\n  %s", v)
		}
	}
	if len(r.Counters) > 0 {
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "\n  check/%s = %d", k, r.Counters[k])
		}
	}
	return b.String()
}
