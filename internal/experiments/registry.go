package experiments

import (
	"fmt"
	"io"

	"xui/internal/sim"
)

// The job registry names every experiment, defines its parameter grid,
// and binds it to a runner producing the machine-readable payload plus a
// text renderer for that payload. It is the only place a grid is
// defined: xuibench's text tables, -json, -report, -benchjson and -plot,
// the xuiserve daemon and the benchmark harness all resolve names here,
// which is what makes a daemon-cached result byte-identical to a local
// run and keeps the front ends from drifting.

// jobSpec is one registered experiment.
type jobSpec struct {
	name string
	// byName marks an experiment "all" leaves out: it runs only when
	// requested by name.
	byName bool
	// run computes the payload and returns it with a closure that
	// renders it as text tables.
	run func(quick bool) (payload any, text func(io.Writer))
}

// job binds a typed runner to its renderer, so neither needs a type
// assertion on the payload.
func job[T any](name string, run func(quick bool) T, text func(io.Writer, T)) jobSpec {
	return jobSpec{name: name, run: func(quick bool) (any, func(io.Writer)) {
		p := run(quick)
		return p, func(w io.Writer) { text(w, p) }
	}}
}

// jobRegistry lists every experiment in canonical order.
var jobRegistry = []jobSpec{
	job("table2", func(bool) versus[Table2Result] {
		return versus[Table2Result]{Simulated: Table2(), Paper: PaperTable2()}
	}, textTable2),
	job("fig2", func(bool) versus[Fig2Result] {
		return versus[Fig2Result]{Simulated: Fig2(), Paper: PaperFig2()}
	}, textFig2),
	job("fig4", func(quick bool) fig4Payload {
		rows := Fig4(jobUops(quick))
		return fig4Payload{Averages: Fig4Summary(rows), Rows: rows}
	}, textFig4),
	job("fig5", func(quick bool) []Fig5Row { return Fig5([]float64{2, 5, 10, 25, 50}, jobUops(quick)) }, textFig5),
	job("fig6", func(quick bool) []Fig6Row {
		return Fig6([]float64{5, 10, 20, 50, 100}, []int{1, 2, 4, 8, 16, 22, 26}, jobHorizon(quick))
	}, textFig6),
	job("fig7", func(quick bool) []Fig7Row {
		return Fig7([]float64{25_000, 50_000, 100_000, 150_000, 200_000, 225_000, 245_000}, jobHorizon(quick))
	}, textFig7),
	job("fig8", func(quick bool) []Fig8Row {
		return Fig8([]int{1, 2, 4, 8}, []float64{10, 20, 40, 60, 80}, jobHorizon(quick))
	}, textFig8),
	job("fig9", func(bool) []Fig9Row { return Fig9([]float64{0, 10, 20, 30, 40, 50}, 1000) }, textFig9),
	job("worstcase", func(bool) []WorstCaseRow { return WorstCase([]int{5, 10, 20, 35, 50, 60}) }, textWorstCase),
	job("section2", func(bool) Section2Result { return Section2() }, textSection2),
	job("section35", func(bool) section35Payload {
		return section35Payload{
			PointerChase: S35PointerChase([]int{8, 64, 1024, 16384, 131072}),
			Linearity:    S35Linearity([]int{5, 10, 20, 40}),
		}
	}, textSection35),
	job("ablations", func(quick bool) ablationsPayload {
		return ablationsPayload{
			CluiStui:         CluiStuiCriticalSection(5, jobHorizon(quick)),
			SafepointDensity: SafepointDensity([]int{5, 25, 100, 400}, jobUops(quick)),
			PollDensity:      PollDensity([]int{4, 10, 25, 50, 100}, jobUops(quick)),
		}
	}, textAblations),
	job("multiworker", func(quick bool) []MultiWorkerRow {
		return MultiWorker([]int{1, 2, 4}, 400_000, jobHorizon(quick))
	}, textMultiWorker),
	job("duet", func(quick bool) DuetResult {
		iters := 40
		if quick {
			iters = 15
		}
		return Duet(iters)
	}, textDuet),
	// scale measures the sharded engine itself at cluster sizes, so it is
	// requested explicitly rather than run as part of "all".
	job("scale", Scale, textScale).onlyByName(),
}

func (s jobSpec) onlyByName() jobSpec {
	s.byName = true
	return s
}

// Composite payloads. Fields are declared in sorted key order, the order
// encoding/json writes a map's keys in, which keeps the payload bytes the
// fingerprint tests and bench/golden.json pin.
type (
	versus[T any] struct {
		Paper     T `json:"paper"`
		Simulated T `json:"simulated"`
	}
	fig4Payload struct {
		Averages map[string]float64 `json:"averages"`
		Rows     []Fig4Row          `json:"rows"`
	}
	section35Payload struct {
		Linearity    S35FlushLinearity `json:"linearity"`
		PointerChase []S35ChaseRow     `json:"pointerChase"`
	}
	ablationsPayload struct {
		CluiStui         CluiStuiResult        `json:"cluiStui"`
		PollDensity      []PollDensityRow      `json:"pollDensity"`
		SafepointDensity []SafepointDensityRow `json:"safepointDensity"`
	}
)

// jobHorizon and jobUops are the registry's shared grid scales.
func jobHorizon(quick bool) sim.Time {
	if quick {
		return 30 * sim.Millisecond
	}
	return 100 * sim.Millisecond
}

func jobUops(quick bool) uint64 {
	if quick {
		return 120000
	}
	return 300000
}

// JobNames returns every registered experiment name in canonical order.
func JobNames() []string {
	out := make([]string, len(jobRegistry))
	for i, s := range jobRegistry {
		out[i] = s.name
	}
	return out
}

// AllJobNames returns, in canonical order, the experiments "all" expands
// to: every registered one except those run only by name.
func AllJobNames() []string {
	var out []string
	for _, s := range jobRegistry {
		if !s.byName {
			out = append(out, s.name)
		}
	}
	return out
}

// JobKnown reports whether name is a registered experiment.
func JobKnown(name string) bool {
	_, ok := lookupJob(name)
	return ok
}

func lookupJob(name string) (jobSpec, bool) {
	for _, s := range jobRegistry {
		if s.name == name {
			return s, true
		}
	}
	return jobSpec{}, false
}

// RunJob executes the named experiment at the given grid scale and
// returns its machine-readable payload. The caller owns process-wide
// configuration (SetWorkers, SetCaching, SetObservability, SetProgress)
// exactly as the cmd binaries do.
func RunJob(name string, quick bool) (any, error) {
	s, ok := lookupJob(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown job %q", name)
	}
	payload, _ := s.run(quick)
	return payload, nil
}

// RenderJob executes the named experiment like RunJob, writes its text
// tables to w, and returns the payload the tables were rendered from.
func RenderJob(w io.Writer, name string, quick bool) (any, error) {
	s, ok := lookupJob(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown job %q", name)
	}
	payload, text := s.run(quick)
	text(w)
	return payload, nil
}
