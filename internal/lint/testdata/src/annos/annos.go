// Package annos exercises annotation validation: waivers need reasons,
// function/field annotations must sit on the right declaration kind, and
// unknown verbs are reported.
package annos

import "sync"

//xui:nondet
var missingReason = 1

//xui:alloc
var missingAllocReason = 2

func Misplaced() {
	//xui:noalloc
	_ = missingReason
}

//xui:aliased
var notAField = []int{}

type Wrong struct {
	//xui:aliased
	count int
}

//xui:frobnicate something
func Unknown() {}

//xui:noalloc
func ValidNoalloc(x int) int {
	return x + 1
}

type Right struct {
	//xui:aliased
	rows []int
}

func (r *Right) Drop() { r.rows = nil }

//xui:guardedby mu
var notAGuard = 1

//xui:lockok
var missingLockReason = 3

type Locked struct {
	mu    sync.Mutex
	notMu int
	//xui:guardedby missing
	x int
	//xui:guardedby notMu
	y int
	//xui:guardedby mu
	ok int
}

//xui:crosssend
func NoWhen(x int) { _ = x }

//xui:crosssend
func ValidCrossSend(when int64) { _ = when }
