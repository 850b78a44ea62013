package experiments

import (
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"xui/internal/check"
	"xui/internal/obs"
	"xui/internal/sim"
)

// fig6Periods and fig6Cores are the registry's fig6 grid.
var (
	fig6Periods = []float64{5, 10, 20, 50, 100}
	fig6Cores   = []int{1, 2, 4, 8, 16, 22, 26}
)

// fig6Horizons are the RunUntil horizons TestFig6PeriodSkipExact runs
// every timer point to: the full-scale one, a shorter one, and two that
// fall off every tick grid.
var fig6Horizons = []sim.Time{100 * sim.Millisecond, 30 * sim.Millisecond, 20*sim.Millisecond + 1, 37_345_679}

// fig6Digests are the SHA-256 digests of every timer point's fig6State
// at each of fig6Horizons, recorded from the tick-by-tick loop before
// the period skip existed.
var fig6Digests = []string{
	"9db5dd0eabbcbc81f6ff8163565b7f89c26dfbed3cb736f8173ad4df8ca3b3d8",
	"7e2c6fda8ae2a2e08c340e921431640212539360a22abbf43a59f80b67c341ae",
	"34965b8b6caf202db9c161ae00fe623315c44e96304762090a51c33547b5486a",
	"45a193906c0d16700db5346191d47b6c21eb4350aa8e5de6222497deb0216583",
}

// fig6State renders everything a fig6 point leaves behind: the row,
// setitimer's expiry count and, per core, every account category in
// cycles, the per-mechanism delivery counts and the delivery-latency
// digest.
func fig6State(row Fig6Row, ts *tickSender) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v", row)
	if ts == nil {
		return b.String()
	}
	if ts.itimer != nil {
		fmt.Fprintf(&b, " expiries=%d", ts.itimer.Expiries)
	}
	for _, v := range ts.m.Cores {
		fmt.Fprintf(&b, "\n core%d", v.ID)
		for _, c := range v.Account.Categories() {
			fmt.Fprintf(&b, " %s=%d", c, v.Account.Get(c))
		}
		fmt.Fprintf(&b, " delivered=%v lat=%+v", v.Delivered, v.DelivLat.Summarize())
	}
	return b.String()
}

// TestFig6PeriodSkipExact checks that fig6's period skip changes nothing
// observable. Every timer point of the registry grid, run to each of
// fig6Horizons on a bare Env, must leave the same state as on a checked
// Env, whose checker keeps the machine from ever being quiescent, and
// the digest of those states must equal the tick-by-tick loop's.
func TestFig6PeriodSkipExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fig6 timer point twice at four horizons")
	}
	if raceBuild {
		// 243 s under -race against 6 s without, on a 2-vCPU VM; the
		// skip is single-threaded, so the race detector has nothing to
		// find in it.
		t.Skip("too slow under -race")
	}
	for hi, h := range fig6Horizons {
		t.Run(fmt.Sprint(uint64(h)), func(t *testing.T) {
			sum := sha256.New()
			for _, p := range fig6Periods {
				for _, n := range fig6Cores {
					for _, method := range Fig6Methods[:3] {
						got := fig6State((&Env{}).fig6Point(method, p, n, h))
						want := fig6State((&Env{Check: check.NewCollector()}).fig6Point(method, p, n, h))
						if got != want {
							t.Errorf("%s %gus %d cores:\n got %s\nwant %s", method, p, n, got, want)
						}
						sum.Write([]byte(got))
					}
				}
			}
			if d := fmt.Sprintf("%x", sum.Sum(nil)); d != fig6Digests[hi] {
				t.Errorf("state digest %s, want %s", d, fig6Digests[hi])
			}
		})
	}
}

// fig6Fired runs one point to horizon and returns how many events its
// simulator dispatched.
func fig6Fired(e *Env, method string, periodUs float64, nApp int, horizon sim.Time) uint64 {
	_, ts := e.fig6Point(method, periodUs, nApp, horizon)
	return ts.s.Fired()
}

// TestFig6PeriodSkipEngages checks that the skip is what removes the
// repeated ticks, and only where the machine comes to rest: a quiescent
// point fires at least 20x fewer events than its checked run, and the
// two 5 µs, 26-core points whose sends overrun the period fire exactly
// as many.
func TestFig6PeriodSkipEngages(t *testing.T) {
	checked := &Env{Check: check.NewCollector()}
	const h = 100 * sim.Millisecond
	bare, full := fig6Fired(&Env{}, "nanosleep", 100, 8, h), fig6Fired(checked, "nanosleep", 100, 8, h)
	if bare*20 > full {
		t.Errorf("nanosleep 100us 8 cores fired %d events, want at most %d (1/20 of %d)", bare, full/20, full)
	}
	// 4,000 ticks are plenty to show these points never come to rest.
	for _, method := range []string{"setitimer", "rdtsc-spin"} {
		if bare, full := fig6Fired(&Env{}, method, 5, 26, h/5), fig6Fired(checked, method, 5, 26, h/5); bare != full {
			t.Errorf("%s 5us 26 cores fired %d events, want %d as in the full loop", method, bare, full)
		}
	}
}

// fig6QuickObservedFired is sim/events_fired of a quick fig6 run with a
// metrics registry attached, recorded before the period skip existed.
const fig6QuickObservedFired = 10507676

// TestFig6ObservedFullLoop checks that a metered run still counts the
// full loop: a metrics-attached quick fig6 takes the period skip, yet
// its sim/events_fired holds every event the tick-by-tick loop
// dispatched before the skip existed, skipped ticks included.
func TestFig6ObservedFullLoop(t *testing.T) {
	reg := obs.NewRegistry()
	e := &Env{Obs: &obs.Context{Metrics: reg}}
	if _, err := e.RunJob("fig6", true); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["sim/events_fired"]; got != fig6QuickObservedFired {
		t.Errorf("sim/events_fired = %d, want %d", got, fig6QuickObservedFired)
	}
}

// TestFig6MeteredSkip checks that a metered run takes the period skip
// and still meters exactly what the full loop does. Every timer point,
// run at 100 ms and at 20 ms + 1 cycle with a metrics-only context,
// must leave the same registry snapshot as with metrics and a tracer,
// whose tracer keeps the machine from ever being quiescent, and hold no
// counter written with zero (a flush that adds zero creates a name the
// run never touched). A direct fig6Point call runs no sweep, so the
// snapshot holds no wall-clock key to leave out. The skip must also
// have engaged: on nanosleep at 100 µs with 8 cores the simulator
// dispatches at most a fifth of the events sim/events_fired counts.
func TestFig6MeteredSkip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fig6 timer point twice at two horizons")
	}
	if raceBuild {
		// Like TestFig6PeriodSkipExact: the skip and the meters are
		// single-threaded, and the traced full loop is slow under -race.
		t.Skip("too slow under -race")
	}
	metered := func(tr *obs.Tracer, method string, p float64, n int, h sim.Time) (obs.Snapshot, uint64) {
		ctx := &obs.Context{Trace: tr, Metrics: obs.NewRegistry()}
		_, ts := (&Env{Obs: ctx}).fig6Point(method, p, n, h)
		return ctx.Metrics.Snapshot(), ts.s.Fired()
	}
	for _, h := range []sim.Time{100 * sim.Millisecond, 20*sim.Millisecond + 1} {
		for _, method := range Fig6Methods[:3] {
			t.Run(fmt.Sprintf("%d/%s", uint64(h), method), func(t *testing.T) {
				t.Parallel()
				for _, p := range fig6Periods {
					for _, n := range fig6Cores {
						got, fired := metered(nil, method, p, n, h)
						want, _ := metered(obs.NewStreamTracer(io.Discard), method, p, n, h)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%gus %d cores: metrics-only snapshot differs from the traced full loop:\n got %+v\nwant %+v",
								p, n, got, want)
						}
						for k, v := range got.Counters {
							if v == 0 {
								t.Errorf("%gus %d cores: counter %s written with nothing counted", p, n, k)
							}
						}
						if method == "nanosleep" && p == 100 && n == 8 && h == 100*sim.Millisecond {
							if total := got.Counters["sim/events_fired"]; fired*5 > total {
								t.Errorf("100us 8 cores dispatched %d events of the %d metered, want at most a fifth", fired, total)
							}
						}
					}
				}
			})
		}
	}
}
