package experiments

import (
	"xui/internal/apic"
	"xui/internal/core"
	"xui/internal/dsa"
	"xui/internal/kernel"
	"xui/internal/sim"
	"xui/internal/stats"
	"xui/internal/uintr"
)

// Fig9Row is one point of Figure 9: free cycles and response-delivery
// latency for one completion-notification strategy at one offload class
// and noise magnitude.
type Fig9Row struct {
	Class     string // "2us" or "20us"
	Method    string // "busy-spin", "periodic-poll", "xui"
	NoisePct  float64
	FreePct   float64
	NotifyUs  float64 // mean delay from completion-record write to the client noticing
	RequestUs float64 // mean end-to-end offload latency seen by the client
	Requests  uint64
}

// Fig9Methods lists the three strategies.
var Fig9Methods = []string{"busy-spin", "periodic-poll", "xui"}

// Client-side per-offload work: building the descriptor/buffers before
// submission and consuming the result afterwards.
const (
	fig9PrepCost   sim.Time = 900
	fig9HandleCost sim.Time = 400
)

// Fig9 sweeps noise magnitude for both latency classes and all three
// strategies, running a closed-loop offload client for `requests`
// offloads per point. Paper anchors: busy spinning frees nothing;
// periodic polling's latency degrades sharply for 20 µs requests as noise
// grows; xUI stays within ≈0.2 µs of spinning while freeing ≈75 % of
// cycles for 2 µs requests.
func (e *Env) Fig9(noisePcts []float64, requests int) []Fig9Row {
	classes := []struct {
		name string
		mean sim.Time
	}{{"2us", dsa.ShortClassMean}, {"20us", dsa.LongClassMean}}
	type job struct {
		name   string
		mean   sim.Time
		np     float64
		method string
	}
	var jobs []job
	for _, cl := range classes {
		for _, np := range noisePcts {
			for _, method := range Fig9Methods {
				jobs = append(jobs, job{cl.name, cl.mean, np, method})
			}
		}
	}
	return runGrid(e, "fig9", jobs, func(_ int, j job) Fig9Row {
		return e.fig9Point(j.name, j.mean, j.np/100, j.method, requests)
	})
}

func (e *Env) fig9Point(className string, mean sim.Time, noise float64, method string, requests int) Fig9Row {
	s := sim.New(31)
	m, err := core.NewMachine(s, 1, core.TrackedIPI)
	if err != nil {
		panic(err)
	}
	e.observeMachine(m)
	v := m.Cores[0]
	kernel.New(m) // install the kernel's interrupt hooks
	dev := dsa.New(s, dsa.Config{BaseLatency: mean, Noise: noise}, 321)

	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	for i := range src {
		src[i] = byte(i)
	}

	notifyLat := &stats.Welford{}
	reqLat := &stats.Welford{}
	done := 0
	var submitAt sim.Time

	// handleDone is invoked when the client has *noticed* the completion.
	var issue func(now sim.Time)
	handleDone := func(now sim.Time, completedAt sim.Time) {
		notifyLat.Add(float64(now - completedAt))
		reqLat.Add(float64(now - submitAt))
		v.Account.Charge(core.CatWork, uint64(fig9HandleCost))
		done++
		if done < requests {
			s.After(fig9HandleCost, issue)
		}
	}

	var periodicPending *dsa.Descriptor
	switch method {
	case "xui":
		m.IOAPIC.Program(0, apic.Redirection{Dest: 0, Vector: 0x38})
		v.APIC.EnableForwarding(0x38)
		v.APIC.ActivateVector(0x38)
		var completedAt sim.Time
		dev.OnComplete = func(now sim.Time, _ *dsa.Descriptor) {
			completedAt = now
			_ = m.IOAPIC.Assert(0)
		}
		v.Handler = func(now sim.Time, _ uintr.Vector, _ core.Mechanism) {
			handleDone(now, completedAt)
		}
	case "busy-spin":
		dev.OnComplete = func(now sim.Time, _ *dsa.Descriptor) {
			// Every cycle between submission and completion burned on the
			// completion queue; the spinning client observes the record
			// after the line transfer + mispredicted branch.
			v.Account.Charge(core.CatPoll, uint64(now-submitAt)+uint64(core.PollingNotifyCost))
			s.After(sim.Time(core.PollingNotifyCost), func(t sim.Time) { handleDone(t, now) })
		}
	case "periodic-poll":
		// The OS interval timer is programmed to fire when the response is
		// *expected* (the mean offload latency); if the response is late
		// the handler re-checks every OS-minimum interval. Each check is a
		// full signal delivery. With no noise the first check lands right
		// at the completion; noise makes checks miss, and processing waits
		// for the next timer event (§6.2.3).
		dev.OnComplete = func(now sim.Time, d *dsa.Descriptor) { periodicPending = d }
	default:
		panic("experiments: unknown fig9 method " + method)
	}

	expectedWait := dsa.PCIeLatency + mean + dsa.PCIeLatency
	var armCheck func(at sim.Time)
	armCheck = func(at sim.Time) {
		s.Schedule(at, func(sim.Time) {
			// Timer expiry → signal delivery → handler checks the record.
			v.Account.Charge("os-timer", core.SignalCost)
			s.After(core.SignalCost, func(now sim.Time) {
				if periodicPending != nil && periodicPending.Completion.Done {
					d := periodicPending
					periodicPending = nil
					handleDone(now, d.Completion.CompletedAt)
					return
				}
				gap := sim.Time(1)
				minPeriod, sigCost := kernel.MinItimerPeriod, sim.Time(core.SignalCost)
				if minPeriod > sigCost {
					gap = minPeriod - sigCost
				}
				armCheck(now + gap)
			})
		})
	}

	issue = func(now sim.Time) {
		v.Account.Charge(core.CatWork, uint64(fig9PrepCost+dsa.SubmitCost))
		s.After(fig9PrepCost+dsa.SubmitCost, func(t sim.Time) {
			submitAt = t
			if err := dev.Submit(&dsa.Descriptor{Op: dsa.Memmove, Src: src, Dst: dst}); err != nil {
				panic(err)
			}
			if method == "periodic-poll" {
				armCheck(t + expectedWait)
			}
		})
	}
	issue(0)
	for done < requests && s.Step() {
	}
	if done < requests {
		panic("experiments: fig9 run stalled")
	}
	e.snapshotMachine(m)

	elapsed := float64(s.Now())
	busy := float64(v.Account.Get(core.CatWork) + v.Account.Get(core.CatPoll) +
		v.Account.Get(core.CatNotify) + v.Account.Get("os-timer") + v.Account.Get("kernel"))
	free := 100 * (1 - busy/elapsed)
	if free < 0 {
		free = 0
	}
	return Fig9Row{
		Class:     className,
		Method:    method,
		NoisePct:  noise * 100,
		FreePct:   free,
		NotifyUs:  notifyLat.Mean() / float64(core.CyclesPerMicrosecond),
		RequestUs: reqLat.Mean() / float64(core.CyclesPerMicrosecond),
		Requests:  uint64(done),
	}
}
