package stats

import (
	"fmt"
	"sort"
	"strings"
)

// CycleAccount attributes simulated CPU cycles to named categories — the
// bookkeeping behind the paper's Figure 8 ("Networking Cycles" / "Polling
// Cycles" / "Free Cycles") and Figure 9 free-cycle plots. Categories are
// created on first use, a zero charge included.
//
// An account sees a handful of fixed names (at most nine in this repo),
// so it keeps them as a short slice searched linearly: Charge sits on the
// Tier-2 per-event path, and comparing a few short strings is far cheaper
// than hashing one into a map.
type CycleAccount struct {
	cats  []cycleCat
	total uint64
}

type cycleCat struct {
	name   string
	cycles uint64
}

// NewCycleAccount returns an empty account.
func NewCycleAccount() *CycleAccount {
	return &CycleAccount{}
}

// find returns the index of cat, or -1.
//
//xui:noalloc
func (a *CycleAccount) find(cat string) int {
	for i := range a.cats {
		if a.cats[i].name == cat {
			return i
		}
	}
	return -1
}

// Charge attributes n cycles to category cat.
//
//xui:noalloc
func (a *CycleAccount) Charge(cat string, n uint64) {
	a.total += n
	if i := a.find(cat); i >= 0 {
		a.cats[i].cycles += n
		return
	}
	a.cats = append(a.cats, cycleCat{cat, n}) // first charge of a category; an account has a handful
}

// Total returns the sum over all categories.
func (a *CycleAccount) Total() uint64 { return a.total }

// Get returns the cycles charged to cat.
func (a *CycleAccount) Get(cat string) uint64 {
	if i := a.find(cat); i >= 0 {
		return a.cats[i].cycles
	}
	return 0
}

// Fraction returns cat's share of the total, 0 when the account is empty.
func (a *CycleAccount) Fraction(cat string) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.Get(cat)) / float64(a.total)
}

// Categories returns the category names in sorted order.
func (a *CycleAccount) Categories() []string {
	cats := make([]string, len(a.cats))
	for i, c := range a.cats {
		cats[i] = c.name
	}
	sort.Strings(cats)
	return cats
}

// Merge adds all of other's charges into a.
func (a *CycleAccount) Merge(other *CycleAccount) {
	for _, c := range other.cats {
		a.Charge(c.name, c.cycles)
	}
}

// CopyFrom makes a an exact copy of src, reusing a's storage. Kept copies
// of a live account are its earlier states, the arguments of SameStep
// and Repeat; categories are only ever appended, so a category keeps its
// slot in every later state.
func (a *CycleAccount) CopyFrom(src *CycleAccount) {
	a.cats = append(a.cats[:0], src.cats...)
	a.total = src.total
}

// SameStep reports whether a was charged, since its earlier state mid,
// exactly what mid had been charged since its earlier state old, with
// no category created in either step.
func (a *CycleAccount) SameStep(old, mid *CycleAccount) bool {
	if len(a.cats) != len(old.cats) || len(mid.cats) != len(old.cats) {
		return false
	}
	for i, c := range a.cats {
		if m := mid.cats[i].cycles; c.cycles-m != m-old.cats[i].cycles {
			return false
		}
	}
	return true
}

// Repeat charges a k more times with everything it was charged since its
// earlier state prev.
func (a *CycleAccount) Repeat(prev *CycleAccount, k uint64) {
	for i, c := range a.cats {
		var was uint64
		if i < len(prev.cats) {
			was = prev.cats[i].cycles
		}
		a.cats[i].cycles += k * (c.cycles - was)
	}
	a.total += k * (a.total - prev.total)
}

func (a *CycleAccount) String() string {
	var b strings.Builder
	for i, c := range a.Categories() {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%.1f%%", c, 100*a.Fraction(c))
	}
	return b.String()
}

// Busy tracks busy/idle intervals on a simulated core, yielding utilization.
// Callers mark transitions; overlapping Busy marks are counted once.
type Busy struct {
	busySince uint64 // valid when busy
	busy      bool
	accum     uint64
	origin    uint64
}

// MarkBusy records that the core became busy at time now (cycles).
func (b *Busy) MarkBusy(now uint64) {
	if !b.busy {
		b.busy = true
		b.busySince = now
	}
}

// MarkIdle records that the core became idle at time now.
func (b *Busy) MarkIdle(now uint64) {
	if b.busy {
		b.busy = false
		if now > b.busySince {
			b.accum += now - b.busySince
		}
	}
}

// BusyCycles returns accumulated busy cycles as of time now.
func (b *Busy) BusyCycles(now uint64) uint64 {
	total := b.accum
	if b.busy && now > b.busySince {
		total += now - b.busySince
	}
	return total
}

// Utilization returns busy share of [origin, now].
func (b *Busy) Utilization(now uint64) float64 {
	span := now - b.origin
	if span == 0 {
		return 0
	}
	return float64(b.BusyCycles(now)) / float64(span)
}
