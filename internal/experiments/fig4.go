package experiments

import (
	"sort"

	"xui/internal/cpu"
	"xui/internal/sim"
)

// Fig4Config is one of the three receiver configurations Figure 4
// compares.
type Fig4Config struct {
	Name      string
	Strategy  cpu.Strategy
	SkipNotif bool // KB_Timer as the time source: no UPID routing
}

// Fig4Configs returns the paper's three configurations.
func Fig4Configs() []Fig4Config {
	return []Fig4Config{
		{Name: "UIPI SW Timer", Strategy: cpu.Flush, SkipNotif: false},
		{Name: "xUI (SW Timer + Tracking)", Strategy: cpu.Tracked, SkipNotif: false},
		{Name: "xUI (KB_Timer + Tracking)", Strategy: cpu.Tracked, SkipNotif: true},
	}
}

// Fig4Row is one bar of Figure 4.
type Fig4Row struct {
	Workload    string
	Config      string
	PerEvent    float64 // added receiver cycles per interrupt
	OverheadPct float64 // slowdown at the 5 µs interval
}

// Fig4Workloads are the paper's three microbenchmarks.
var Fig4Workloads = []string{"fib", "linpack", "memops"}

// Fig4 measures receiver-side overhead for periodic interrupts at a 5 µs
// interval (the paper's headline: 645 → 231 → 105 cycles per event;
// 6.86 % → 1.06 % overhead).
func (e *Env) Fig4(uopsPerRun uint64) []Fig4Row {
	period := uint64(5 * sim.Time(2000)) // 5 µs at 2 GHz
	type job struct {
		w   string
		cfg Fig4Config
	}
	var jobs []job
	for _, w := range Fig4Workloads {
		for _, cfg := range Fig4Configs() {
			jobs = append(jobs, job{w, cfg})
		}
	}
	return runGrid(e, "fig4", jobs, func(_ int, j job) Fig4Row {
		per := e.ReceiverEventCost(j.cfg.Strategy, j.w, j.cfg.SkipNotif, period, uopsPerRun)
		return Fig4Row{
			Workload:    j.w,
			Config:      j.cfg.Name,
			PerEvent:    per,
			OverheadPct: 100 * per / float64(period),
		}
	})
}

// Fig4Summary averages per-event costs across workloads per config,
// matching how the paper quotes the 645/231/105 numbers.
func Fig4Summary(rows []Fig4Row) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]int{}
	for _, r := range rows {
		sum[r.Config] += r.PerEvent
		n[r.Config]++
	}
	out := map[string]float64{}
	configs := make([]string, 0, len(sum))
	for k := range sum {
		configs = append(configs, k)
	}
	sort.Strings(configs)
	for _, k := range configs {
		out[k] = sum[k] / float64(n[k])
	}
	return out
}
