package report

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"xui/internal/check"
	"xui/internal/experiments"
	"xui/internal/obs"
)

// Session is the run lifecycle every command-line front end shares: one
// flag set for the trace, metrics, report, profiles, sweep width and
// invariant checking. Start builds the run's experiments.Env
// from them, Finish writes the run's outputs. A front end's main keeps
// only its own flags and its run body:
//
//	sess := report.Flags(flag.CommandLine, "xuisim")
//	flag.Parse()
//	if err := sess.Start(); err != nil { ... }
//	... run on sess.Env(), collecting payloads ...
//	if err := sess.Finish(experiment, quick, results); err != nil { ... }
type Session struct {
	cmd                                string
	tracePath, metricsPath, reportPath string
	cpuProfile, memProfile             string
	workers                            int
	checkOn                            bool

	env      *experiments.Env
	ctx      *obs.Context
	checks   *check.Collector
	stopProf func() error
	start    time.Time
}

// Flags registers the shared front-end flags on fs and returns the
// session they configure for the named cmd.
func Flags(fs *flag.FlagSet, cmd string) *Session {
	s := &Session{cmd: cmd}
	fs.StringVar(&s.tracePath, "trace", "", "stream a Chrome trace-event / Perfetto JSON trace of the run to this file")
	fs.StringVar(&s.metricsPath, "metrics", "", "write a metrics-registry JSON snapshot of the run to this file")
	fs.StringVar(&s.reportPath, "report", "", "write a unified schema-versioned run report (rows, latency histograms, cache/check/sweep stats) to this file")
	fs.StringVar(&s.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&s.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.IntVar(&s.workers, "j", runtime.GOMAXPROCS(0), "worker goroutines for the grid-experiment sweeps; results are identical at any value")
	fs.BoolVar(&s.checkOn, "check", false, "run with invariant checking: assert the protocol conservation laws on every delivery, print the check report, fail on violations")
	return s
}

// Start builds the run's Env from the flags — the sweep width, the
// invariant collector with -check, and the observability
// context: a streaming tracer with -trace, and a metrics registry with
// -metrics or -report (reports read their latency histograms out of
// it) — and starts the profiles.
func (s *Session) Start() error {
	if s.checkOn {
		s.checks = check.NewCollector()
	}
	stop, err := obs.StartProfiles(s.cpuProfile, s.memProfile)
	if err != nil {
		return err
	}
	s.stopProf = stop
	if s.tracePath != "" || s.metricsPath != "" || s.reportPath != "" {
		s.ctx = &obs.Context{}
		if s.tracePath != "" {
			// Streamed to disk as recorded: bounded memory, no event
			// cap, valid JSON even if the run is cut short.
			if s.ctx.Trace, err = obs.StreamFile(s.tracePath); err != nil {
				return errors.Join(err, stop())
			}
		}
		if s.metricsPath != "" || s.reportPath != "" {
			s.ctx.Metrics = obs.NewRegistry()
		}
	}
	s.env = &experiments.Env{Workers: s.workers, Obs: s.ctx, Check: s.checks}
	s.start = time.Now()
	return nil
}

// Env is the run environment Start built: every run of the session goes
// through it, so all of them share its sinks and number their Tier-1
// trace threads in one sequence.
func (s *Session) Env() *experiments.Env { return s.env }

// Finish ends the run: it publishes the cache and check counters into the
// registry, writes the report (results keyed by experiment name), closes
// the trace, writes the metrics snapshot and stops the profiles. A failed
// step does not skip the later ones; the error joins every failure. With
// -check on, Finish prints the check report to stderr and fails if any
// invariant was violated.
func (s *Session) Finish(experiment string, quick bool, results map[string]any) error {
	var cr check.Report
	if s.checks != nil {
		cr = s.checks.Report()
	}
	if reg := s.ctx.RegistryOrNil(); reg != nil {
		experiments.PublishCacheStats(reg)
		if s.checks != nil {
			cr.PublishTo(reg)
		}
	}
	var errs []error
	if s.reportPath != "" {
		d := New(s.cmd)
		d.Experiment = experiment
		d.Quick = quick
		d.Workers = s.workers
		for name, rows := range results {
			d.AddResult(name, rows)
		}
		if s.checks != nil {
			d.Checks = &cr
		}
		cs := experiments.CacheStats()
		d.Cache = &cs
		d.AttachContext(s.ctx, s.tracePath)
		d.WallMs = float64(time.Since(s.start).Microseconds()) / 1000
		errs = append(errs, d.WriteFile(s.reportPath))
	}
	errs = append(errs, s.ctx.TracerOrNil().Close())
	if s.metricsPath != "" {
		errs = append(errs, s.ctx.Metrics.ExportFile(s.metricsPath))
	}
	errs = append(errs, s.stopProf())
	if s.checks != nil {
		fmt.Fprintln(os.Stderr, cr)
		if !cr.OK() {
			errs = append(errs, fmt.Errorf("%s: %d invariant violations", s.cmd, cr.Violations))
		}
	}
	return errors.Join(errs...)
}
