// Package lint implements xuivet, the project-contract analyzer suite.
//
// The simulator's correctness rests on contracts that ordinary Go tooling
// cannot see: byte-identical determinism per seed (the runcache/sweep/check
// stack replays and memoizes runs on that assumption), the single-goroutine
// discipline of the event kernel, the nil-guarded observer fast paths, the
// zero-allocation hot loops won in earlier performance work, and the
// "drop — never truncate" rule for slices whose backing arrays escape into
// results. Each contract is enforced here as a named analyzer so a
// violation is a CI failure, not a future debugging session.
//
// The suite is built only on the standard library (go/parser, go/ast,
// go/types, go/importer); the one external process it runs is the Go
// compiler itself, whose -m escape-analysis diagnostics back the noalloc
// analyzer.
//
// Since v2 the suite is interprocedural: a module-wide call graph
// (callgraph.go) of direct and func-value call edges and a small forward
// dataflow layer (dataflow.go) let noalloc verify the whole reachable call
// tree of an annotated function, determinism see time.Now through wrappers
// and stored func values, and the concurrency-contract analyzers
// (shardsafe, lockcheck, recoversafe) check disciplines that span function
// boundaries. DESIGN.md §15 describes the construction and its soundness
// limits.
//
// Annotation grammar (all comments start exactly with "//xui:"). The
// Directives table in annotations.go is the one list of verbs, their
// owning analyzers and placements; every verb in it has a line here.
//
//	//xui:nondet <reason>    waive a determinism diagnostic on this or the
//	                         next line; the reason is mandatory
//	//xui:noalloc            (function doc comment) the function body and
//	                         its statically reachable module callees must
//	                         not contain compiler-attributed heap allocations
//	//xui:alloc <reason>     inside a //xui:noalloc call tree, waive the
//	                         allocation on this or the next line (cold
//	                         paths); on a call line it also vouches for the
//	                         callee, pruning that edge from the closure
//	//xui:aliased            (struct field) the slice field's backing array
//	                         is aliased by published results; reslicing or
//	                         truncating it in place is forbidden
//	//xui:guardedby <mu>     (struct field, or local var in a parenthesized
//	                         var block) the field may only be accessed while
//	                         the named sibling mutex is held (lockcheck)
//	//xui:lockok <reason>    waive a lockcheck diagnostic on this or the
//	                         next line
//	//xui:crosssend          (function doc comment) every call site's
//	                         "when" argument must derive from an
//	                         epoch-boundary time source (shardsafe)
//	//xui:shardok <reason>   waive a shardsafe diagnostic on this or the
//	                         next line
//	//xui:norecover <reason> waive a recoversafe diagnostic on this or the
//	                         next line
package lint

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, positioned in the analyzed source.
// Path, when present, is the call-path blame chain from the reported site
// down to the fact that triggered the finding (interprocedural analyzers).
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
	Path     []Frame        `json:"path,omitempty"`
}

// Frame is one step of a call-path blame chain.
type Frame struct {
	Func string `json:"func"`
	File string `json:"file"`
	Line int    `json:"line"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one named contract check. The report callback optionally
// carries a call-path blame chain for interprocedural findings. run is nil
// for noalloc, whose check is EscapeCheck.
type Analyzer struct {
	Name string
	Doc  string
	run  func(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame))
}

// Config selects which packages each contract applies to and what the
// probe types are called. DefaultConfig returns the project's values; the
// fixture tests substitute their own so testdata packages exercise every
// rule.
type Config struct {
	// DeterminismPkgs lists import-path prefixes under the determinism
	// contract (time.Now, global math/rand, os.Getenv, unordered map
	// iteration are all forbidden there).
	DeterminismPkgs []string
	// SingleGoroutinePkgs lists import-path prefixes under the
	// single-goroutine contract (no go statements, channels, or sync).
	SingleGoroutinePkgs []string
	// ProbeTypes names the interface types whose calls must be nil-guarded
	// (matched by type name, declared anywhere in the module).
	ProbeTypes []string
	// LockCheckPkgs lists import-path prefixes where //xui:guardedby fields
	// are enforced and no lock may be held across a blocking call.
	LockCheckPkgs []string
	// RecoverSafePkgs lists import-path prefixes where every go statement's
	// body must be dominated by a recover wrapper.
	RecoverSafePkgs []string
}

// DefaultConfig returns the analyzer configuration for this module.
// modulePath is the module's import path ("xui").
func DefaultConfig(modulePath string) *Config {
	det := []string{
		"internal/sim", "internal/cpu", "internal/core", "internal/kernel",
		"internal/apic", "internal/uintr", "internal/urt", "internal/ipc",
		"internal/netsim", "internal/dsa", "internal/loadgen",
		"internal/experiments", "internal/shard",
	}
	cfg := &Config{ProbeTypes: []string{"Probe", "IntrObserver", "CheckProbe"}}
	for _, p := range det {
		cfg.DeterminismPkgs = append(cfg.DeterminismPkgs, modulePath+"/"+p)
	}
	// The Tier-2 event kernel, the sharded engine that couples several of
	// them, and the Tier-1 cycle loop: one goroutine per run, concurrency
	// is modelled with events, never spawned.
	cfg.SingleGoroutinePkgs = []string{
		modulePath + "/internal/sim",
		modulePath + "/internal/cpu",
		modulePath + "/internal/shard",
	}
	// The concurrent host-side packages: the daemon, the sweep pool, the
	// run cache, the metrics/trace registries and the invariant checker.
	for _, p := range []string{
		"internal/obs", "internal/runcache", "internal/server",
		"internal/check", "internal/sweep",
	} {
		cfg.LockCheckPkgs = append(cfg.LockCheckPkgs, modulePath+"/"+p)
	}
	for _, p := range []string{
		"internal/server", "internal/sweep",
	} {
		cfg.RecoverSafePkgs = append(cfg.RecoverSafePkgs, modulePath+"/"+p)
	}
	return cfg
}

func matchPkg(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Suite holds the loaded packages, the module-wide annotation tables, the
// lazily built call graph and its derived dataflow facts, and the analyzer
// set.
type Suite struct {
	Cfg   *Config
	Pkgs  []*Package
	Annos *Annotations

	ran          map[string]bool // analyzers run so far, for the stale-waiver audit
	graph        *CallGraph
	detFactsMap  map[*Node]*reachFact
	blockFacts   map[*Node]*reachFact
	recoverFacts map[*Node]*reachFact
}

// NewSuite collects annotations across pkgs and prepares the analyzers.
func NewSuite(cfg *Config, pkgs []*Package) *Suite {
	return &Suite{Cfg: cfg, Pkgs: pkgs, Annos: collectAnnotations(pkgs), ran: map[string]bool{}}
}

// Graph returns the module call graph, built on first use.
func (s *Suite) Graph() *CallGraph {
	if s.graph == nil {
		s.graph = BuildCallGraph(s.Pkgs)
	}
	return s.graph
}

// Analyzers returns the contract analyzers in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerDeterminism(),
		analyzerNilProbe(),
		analyzerSingleGoroutine(),
		analyzerNoalloc(),
		analyzerAlias(),
		analyzerShardSafe(),
		analyzerLockCheck(),
		analyzerRecoverSafe(),
	}
}

// AnalyzerNames returns the analyzer names in their fixed order.
func AnalyzerNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
}

// AnalyzerDoc returns the one-line description of a named analyzer.
func AnalyzerDoc(name string) string {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a.Doc
		}
	}
	return ""
}

// Run executes the named analyzers (all when enabled is nil) over every
// package and returns the surviving diagnostics sorted by position. Waived
// findings are dropped and their waivers marked used. Malformed-annotation
// findings are included for every enabled analyzer.
func (s *Suite) Run(enabled map[string]bool) []Diagnostic {
	var out []Diagnostic
	on := func(name string) bool { return enabled == nil || enabled[name] }
	for _, a := range Analyzers() {
		if a.run == nil || !on(a.Name) {
			continue
		}
		s.ran[a.Name] = true
		for _, p := range s.Pkgs {
			pkg := p
			a.run(s, pkg, func(pos token.Pos, msg string, path ...Frame) {
				d := Diagnostic{Analyzer: a.Name, Pos: pkg.Fset.Position(pos), Message: msg, Path: path}
				if s.waive(a.Name, d.Pos) {
					return
				}
				out = append(out, d)
			})
		}
	}
	// Malformed or misplaced annotations are reported under the analyzer
	// that owns the annotation kind.
	for _, d := range s.Annos.Malformed {
		if on(d.Analyzer) {
			out = append(out, d)
		}
	}
	sortDiags(out)
	return out
}

// waive reports whether a diagnostic analyzer raised at pos is covered by
// one of that analyzer's waivers, marking the waiver used.
func (s *Suite) waive(analyzer string, pos token.Position) bool {
	for _, w := range s.Annos.Waivers {
		if directive(w.Verb).Analyzer == analyzer && w.covers(pos) {
			w.Used = true
			return true
		}
	}
	return false
}

// StaleWaivers returns every waiver that suppressed nothing in the
// analyses run so far — code that became clean, so the waiver should be
// deleted. Only waivers whose owning analyzer ran are audited: call after
// Run, and after EscapeCheck for //xui:alloc waivers.
func (s *Suite) StaleWaivers() []Diagnostic {
	var out []Diagnostic
	for _, w := range s.Annos.Waivers {
		owner := directive(w.Verb).Analyzer
		if w.Used || !s.ran[owner] {
			continue
		}
		out = append(out, Diagnostic{
			Analyzer: owner,
			Pos:      token.Position{Filename: w.File, Line: w.Line, Column: 1},
			Message:  fmt.Sprintf("stale //xui:%s waiver (%q): no diagnostic suppressed; delete it", w.Verb, w.Reason),
		})
	}
	sortDiags(out)
	return out
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return ds[i].Message < ds[j].Message
	})
}

// exprString renders an expression in canonical single-line form; the
// nil-probe guard matcher compares receivers textually through it.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var b strings.Builder
	_ = printer.Fprint(&b, fset, e)
	return b.String()
}
