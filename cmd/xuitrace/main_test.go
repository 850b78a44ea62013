package main

import (
	"testing"

	"xui/internal/cpu"
)

func TestInterruptSummary(t *testing.T) {
	cases := []struct {
		name string
		recs []cpu.IntrRecord
		want string
	}{
		{"none delivered", []cpu.IntrRecord{{Arrive: 500}},
			"interrupts: 0 delivered of 1"},
		{"one of two delivered", []cpu.IntrRecord{
			{Arrive: 100, UiretDone: 1100, Reinjections: 1},
			{Arrive: 5000},
		}, "interrupts: 1 delivered of 2; mean delivery latency 1000 cycles; 1.00 reinjections/intr"},
		{"means over delivered", []cpu.IntrRecord{
			{Arrive: 0, UiretDone: 800},
			{Arrive: 1000, UiretDone: 2200, Reinjections: 1},
		}, "interrupts: 2 delivered of 2; mean delivery latency 1000 cycles; 0.50 reinjections/intr"},
	}
	for _, tc := range cases {
		if got := interruptSummary(tc.recs); got != tc.want {
			t.Errorf("%s:\n got %q\nwant %q", tc.name, got, tc.want)
		}
	}
}
