package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one harness-timed interval around a call into a layer. Spans of
// one operation share Op; Parent indexes the enclosing span in the same
// log (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Tid    int    `json:"tid"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"` // unix µs
	End    int64  `json:"end"`   // unix µs
}

// spanLog keeps one goroutine's spans in memory until the process writes
// them out, so recording takes no lock. A nil log records nothing, and
// untraced runs pay one pointer test per span.
type spanLog struct {
	spans []span
}

func (l *spanLog) begin(name, op string, tid, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Op: op, Tid: tid, Parent: parent, Start: time.Now().UnixMicro()})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].End = time.Now().UnixMicro()
}

// writeSpans saves the logs, whose goroutines have finished, as one JSON
// array; nil logs are skipped and no path writes nothing.
func writeSpans(path string, logs ...*spanLog) error {
	if path == "" {
		return nil
	}
	var all []span
	for _, l := range logs {
		if l == nil {
			continue
		}
		off := len(all)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			all = append(all, s)
		}
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readSpans(path string) ([]span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s []span
	return s, json.Unmarshal(data, &s)
}

// process is one child's span log, placed under the parent's span for
// that child process.
type process struct {
	label string
	outer span
	spans []span
}

// spanStat is the per-name total of a span tree: self time is a span's
// duration minus the part its children cover.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// spanStats totals every span by name across the processes. A process's
// root spans are children of its outer span.
func spanStats(run span, procs []process) []spanStat {
	by := map[string]*spanStat{}
	add := func(name string, dur, children int64) {
		s := by[name]
		if s == nil {
			s = &spanStat{Name: name}
			by[name] = s
		}
		s.Count++
		s.TotalS += float64(dur) / 1e6
		s.SelfS += float64(dur-children) / 1e6
	}
	var runChildren int64
	for _, p := range procs {
		childDur := make([]int64, len(p.spans))
		var rootDur int64
		for _, s := range p.spans {
			if s.Parent >= 0 {
				childDur[s.Parent] += s.End - s.Start
			} else {
				rootDur += s.End - s.Start
			}
		}
		for i, s := range p.spans {
			add(s.Name, s.End-s.Start, childDur[i])
		}
		add(p.outer.Name, p.outer.End-p.outer.Start, rootDur)
		runChildren += p.outer.End - p.outer.Start
	}
	add(run.Name, run.End-run.Start, runChildren)
	out := make([]spanStat, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// chromeEvent is one Chrome trace-event-format record.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the run span (pid 0) and every process's spans
// (pid = process index + 1), with timestamps relative to the run start.
func writeChromeTrace(path string, run span, procs []process) error {
	ev := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 0, Args: map[string]any{"name": "harness"}},
		{Name: run.Name, Ph: "X", Ts: 0, Dur: run.End - run.Start, Pid: 0},
	}
	for i, p := range procs {
		pid := i + 1
		ev = append(ev,
			chromeEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": p.label}},
			chromeEvent{Name: p.outer.Name, Ph: "X", Ts: p.outer.Start - run.Start, Dur: p.outer.End - p.outer.Start, Pid: pid})
		for _, s := range p.spans {
			e := chromeEvent{Name: s.Name, Ph: "X", Ts: s.Start - run.Start, Dur: s.End - s.Start, Pid: pid, Tid: s.Tid}
			if s.Op != "" {
				e.Args = map[string]any{"op": s.Op}
			}
			ev = append(ev, e)
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": ev, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
