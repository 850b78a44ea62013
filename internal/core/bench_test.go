package core

import (
	"testing"

	"xui/internal/obs"
	"xui/internal/sim"
	"xui/internal/uintr"
)

// uipiRig is a two-core machine with a receiver thread installed on core
// 1 and a UITT entry targeting it from core 0: each deliver() is one full
// senduipi → notification → user delivery → uiret round trip.
type uipiRig struct {
	s    *sim.Simulator
	m    *Machine
	uitt uintr.UITT
	idx  int
}

func newUIPIRig(tb testing.TB, ctx *obs.Context) *uipiRig {
	tb.Helper()
	r := &uipiRig{s: sim.New(1)}
	m, err := NewMachine(r.s, 2, UIPI)
	if err != nil {
		tb.Fatal(err)
	}
	r.m = m
	upid := &uintr.UPID{NV: UINV, NDST: 1}
	m.Cores[1].UPID = upid
	r.idx = r.uitt.Register(upid, 9)
	if ctx != nil {
		m.Observe(ctx)
	}
	return r
}

func (r *uipiRig) deliver() {
	if err := r.m.SendUIPI(0, &r.uitt, r.idx); err != nil {
		panic(err)
	}
	r.s.Run()
}

// metricsOnly is the daemon's observability mode: a registry, no tracer.
func metricsOnly() *obs.Context { return &obs.Context{Metrics: obs.NewRegistry()} }

// BenchmarkUIPIDelivery times one UIPI round trip on a bare machine and
// with a metrics registry attached; the gap is the per-delivery cost of
// always-on metrics.
func BenchmarkUIPIDelivery(b *testing.B) {
	for _, bc := range []struct {
		name string
		ctx  func() *obs.Context
	}{
		{"bare", func() *obs.Context { return nil }},
		{"metrics", metricsOnly},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := newUIPIRig(b, bc.ctx())
			r.deliver() // first use allocates the registry's histograms
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.deliver()
			}
		})
	}
}

// TestMetricsDeliveryAllocs pins that a metrics-only context adds no heap
// allocation per delivery: metric names are resolved when the registry is
// attached, so the floor (the event kernel's closures, paid with no
// context at all) is also the ceiling.
func TestMetricsDeliveryAllocs(t *testing.T) {
	bare := newUIPIRig(t, nil)
	floor := testing.AllocsPerRun(200, bare.deliver)

	ctx := metricsOnly()
	observed := newUIPIRig(t, ctx)
	got := testing.AllocsPerRun(200, observed.deliver)
	if got > floor {
		t.Errorf("metrics-only delivery allocates %.1f/op, bare %.1f/op", got, floor)
	}
	if n := ctx.Metrics.Counter("vcore1/delivered/uipi"); n != 201 {
		t.Errorf("vcore1/delivered/uipi = %d, want 201 (warm-up + 200 runs)", n)
	}
}

// TestObserveNilDetachesHandles checks that Observe(nil) drops the
// resolved metric handles along with the context: deliveries after the
// detach leave the registry untouched.
func TestObserveNilDetachesHandles(t *testing.T) {
	ctx := metricsOnly()
	r := newUIPIRig(t, ctx)
	r.deliver()
	r.m.Observe(nil)
	r.deliver()
	if n := ctx.Metrics.Counter("vcore1/delivered/uipi"); n != 1 {
		t.Errorf("vcore1/delivered/uipi = %d after detach, want 1", n)
	}
	if n := ctx.Metrics.Counter("vcore0/senduipi"); n != 1 {
		t.Errorf("vcore0/senduipi = %d after detach, want 1", n)
	}
}
