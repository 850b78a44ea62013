package experiments

import (
	"testing"

	"xui/internal/cpu"
	"xui/internal/trace"
)

// TestProbeCalibration logs the raw emergent costs so calibration drift is
// visible in -v output; the hard assertions live in calibration_test.go.
func TestProbeCalibration(t *testing.T) {
	const period = 10000 // 5 µs
	for _, w := range []string{"fib", "linpack", "memops"} {
		flush := suite.ReceiverEventCost(cpu.Flush, w, false, period, 400000)
		tracked := suite.ReceiverEventCost(cpu.Tracked, w, false, period, 400000)
		kb := suite.ReceiverEventCost(cpu.Tracked, w, true, period, 400000)
		t.Logf("%-8s per-event: flush=%.0f tracked=%.0f delivery-only=%.0f", w, flush, tracked, kb)
	}
	// Decomposition: latency and squash behaviour per strategy on fib.
	for _, s := range []cpu.Strategy{cpu.Flush, cpu.Tracked} {
		core, port := suite.NewReceiver(s, trace.ByName("fib", 1))
		core.PeriodicInterrupts(10000, 10000, func() cpu.Interrupt {
			port.MarkRemoteWrite(UPIDAddr)
			return cpu.Interrupt{Vector: 1, Handler: TinyHandler()}
		})
		res := core.Run(400000, 400000*400)
		var sumLat, sumSquash, sumInj float64
		n := 0
		for _, r := range res.Interrupts {
			if r.UiretDone == 0 {
				continue
			}
			sumLat += float64(r.UiretDone - r.Arrive)
			sumInj += float64(r.InjectStart - r.Arrive)
			sumSquash += float64(r.SquashedAtArrival)
			n++
		}
		t.Logf("%v on fib: n=%d meanLat=%.0f meanInjectWait=%.0f meanSquashed=%.0f squashedProg=%d",
			s, n, sumLat/float64(n), sumInj/float64(n), sumSquash/float64(n), res.SquashedProgram)
	}
	send, icr := suite.SenduipiLoopCost(100)
	t.Logf("senduipi: %.0f cycles/send, ICR completes at +%.0f", send, icr)
	neg, pos := suite.PollingCosts()
	t.Logf("polling: negative=%.2f positive=%.0f", neg, pos)
}
