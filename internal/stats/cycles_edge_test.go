package stats

import "testing"

func TestCycleAccountFractionEmpty(t *testing.T) {
	a := NewCycleAccount()
	if f := a.Fraction("anything"); f != 0 {
		t.Errorf("Fraction on empty account = %g, want 0", f)
	}
	if a.Total() != 0 || len(a.Categories()) != 0 {
		t.Errorf("empty account: total=%d cats=%v", a.Total(), a.Categories())
	}
}

func TestCycleAccountFractionUnknownCategory(t *testing.T) {
	a := NewCycleAccount()
	a.Charge("work", 100)
	if f := a.Fraction("missing"); f != 0 {
		t.Errorf("Fraction of unknown category = %g, want 0", f)
	}
	// Charging an unknown category must not have materialised it.
	if len(a.Categories()) != 1 {
		t.Errorf("categories after reads = %v, want [work]", a.Categories())
	}
}

func TestCycleAccountMergeDisjoint(t *testing.T) {
	a := NewCycleAccount()
	a.Charge("work", 100)
	b := NewCycleAccount()
	b.Charge("notify", 40)
	b.Charge("work", 10)

	a.Merge(b)
	if a.Total() != 150 {
		t.Errorf("merged total = %d, want 150", a.Total())
	}
	if a.Get("work") != 110 || a.Get("notify") != 40 {
		t.Errorf("merged charges: work=%d notify=%d", a.Get("work"), a.Get("notify"))
	}
	// Merge copies, not aliases: mutating b afterwards must not affect a.
	b.Charge("notify", 1000)
	if a.Get("notify") != 40 {
		t.Errorf("merge aliased the source account: notify=%d", a.Get("notify"))
	}
}

func TestCycleAccountMergeEmpty(t *testing.T) {
	a := NewCycleAccount()
	a.Charge("work", 7)
	a.Merge(NewCycleAccount())
	if a.Total() != 7 {
		t.Errorf("merge of empty account changed total: %d", a.Total())
	}

	dst := NewCycleAccount()
	dst.Merge(a)
	if dst.Total() != 7 || dst.Get("work") != 7 {
		t.Errorf("merge into empty account: total=%d work=%d", dst.Total(), dst.Get("work"))
	}
}

// TestCycleAccountZeroChargeAndMergeKeepCategories pins two category
// semantics callers rely on: a zero charge still makes its category
// appear, and Merge carries over a category only the other account has,
// even when its total there is zero.
func TestCycleAccountZeroChargeAndMergeKeepCategories(t *testing.T) {
	a := NewCycleAccount()
	a.Charge("work", 5)
	a.Charge("idle", 0)
	if got := a.Categories(); len(got) != 2 || got[0] != "idle" || got[1] != "work" {
		t.Errorf("categories after a zero charge = %v, want [idle work]", got)
	}
	if a.Total() != 5 || a.Get("idle") != 0 {
		t.Errorf("zero charge moved cycles: total=%d idle=%d", a.Total(), a.Get("idle"))
	}

	b := NewCycleAccount()
	b.Charge("poll", 0)
	b.Charge("notify", 3)
	a.Merge(b)
	got := a.Categories()
	want := []string{"idle", "notify", "poll", "work"}
	if len(got) != len(want) {
		t.Fatalf("categories after merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("categories after merge = %v, want %v", got, want)
		}
	}
	if a.Total() != 8 || a.Get("notify") != 3 {
		t.Errorf("merged account: total=%d notify=%d", a.Total(), a.Get("notify"))
	}
}
