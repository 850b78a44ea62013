// Command xuivet runs the project-contract analyzer suite (internal/lint)
// over the module: determinism, nilprobe, sgoroutine, noalloc, alias,
// shardsafe, lockcheck and recoversafe. It exits 1 when any diagnostic
// (including a stale waiver) survives, so `make vet` and CI treat contract
// violations exactly like vet findings.
//
// Usage:
//
//	xuivet [flags] [packages]
//
// Packages are import-path or ./dir patterns used to filter *reported*
// diagnostics; the whole module is always loaded and type-checked (the
// analyzers need module-wide type identity and the module call graph).
// With no patterns, or with ./..., everything is reported.
//
// Flags:
//
//	-json           emit the versioned xuivet-findings/1 document
//	-since REV      incremental mode: only report diagnostics in packages
//	                changed since REV (plus their reverse dependencies)
//	-report FILE    write a unified schema-versioned run report (per-analyzer
//	                diagnostic counts and the diagnostics themselves)
//	-list           print the analyzer catalogue and annotation grammar
//	-annotations    print the //xui: annotation inventory and stale waivers
//
// Every run checks all eight analyzers; there are no per-analyzer switches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xui/internal/lint"
	"xui/internal/report"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit the versioned "+lint.FindingsSchema+" JSON document")
		sinceRev = flag.String("since", "", "incremental mode: only report diagnostics in packages changed since this git rev (plus reverse dependencies)")
		repPath  = flag.String("report", "", "write a unified schema-versioned run report (per-analyzer diagnostic counts and the diagnostics) to this file")
		listOut  = flag.Bool("list", false, "print the analyzer catalogue and annotation grammar, then exit")
		annosOut = flag.Bool("annotations", false, "print the //xui: annotation inventory and stale waivers, then exit")
	)
	flag.Parse()

	if *listOut {
		printCatalogue()
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	pkgs, modPath, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}
	suite := lint.NewSuite(lint.DefaultConfig(modPath), pkgs)

	if *annosOut {
		printAnnotations(suite, root)
		return
	}

	// Incremental mode: the whole module is still loaded and analyzed (the
	// interprocedural facts need it), but reporting is narrowed to the
	// packages affected by the change.
	var affected map[string]bool
	if *sinceRev != "" {
		affected, err = lint.ChangedPackages(root, *sinceRev, pkgs)
		if err != nil {
			fatal(err)
		}
		if affected == nil {
			affected = map[string]bool{} // nothing changed: report nothing
		}
	}

	diags := suite.Run(nil)
	esc, err := suite.EscapeCheck(root, "", affected)
	if err != nil {
		fatal(err)
	}
	diags = append(diags, esc...)
	diags = append(diags, suite.StaleWaivers()...)
	diags = filterByPatterns(diags, flag.Args(), root)
	if affected != nil {
		diags = filterByPackages(diags, affected, suite)
	}

	if *repPath != "" {
		if err := writeReport(*repPath, diags); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(lint.NewFindings(diags, lint.AnalyzerNames(), root)); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			rel := d
			if r, err := filepath.Rel(root, d.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
			for _, f := range d.Path {
				ff := f.File
				if r, err := filepath.Rel(root, f.File); err == nil {
					ff = r
				}
				fmt.Printf("\tvia %s at %s:%d\n", f.Func, ff, f.Line)
			}
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xuivet:", err)
	os.Exit(2)
}

// writeReport emits the unified run report: per-analyzer diagnostic counts
// (zero entries included for every analyzer, so a clean run still records
// what ran) plus the diagnostics themselves.
func writeReport(path string, diags []lint.Diagnostic) error {
	counts := map[string]int{}
	for _, name := range lint.AnalyzerNames() {
		counts[name] = 0
	}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	if diags == nil {
		diags = []lint.Diagnostic{}
	}
	d := report.New("xuivet")
	d.Experiment = "lint"
	d.AddResult("counts", counts)
	d.AddResult("diagnostics", diags)
	d.AddResult("total", len(diags))
	return d.WriteFile(path)
}

// filterByPackages keeps diagnostics whose file lies in one of the affected
// packages (-since mode).
func filterByPackages(diags []lint.Diagnostic, affected map[string]bool, suite *lint.Suite) []lint.Diagnostic {
	dirs := map[string]bool{}
	for _, p := range suite.Pkgs {
		if affected[p.Path] && len(p.Files) > 0 {
			dirs[filepath.Dir(p.Fset.Position(p.Files[0].Pos()).Filename)] = true
		}
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		if dirs[filepath.Dir(d.Pos.Filename)] {
			out = append(out, d)
		}
	}
	return out
}

// filterByPatterns keeps diagnostics under the named package patterns.
// Patterns ending in /... match recursively; "./..." (or no patterns)
// matches everything.
func filterByPatterns(diags []lint.Diagnostic, patterns []string, root string) []lint.Diagnostic {
	if len(patterns) == 0 {
		return diags
	}
	var dirs []string
	for _, p := range patterns {
		rec := false
		if strings.HasSuffix(p, "/...") {
			rec = true
			p = strings.TrimSuffix(p, "/...")
		}
		if p == "." || p == "" {
			if rec {
				return diags
			}
		}
		p = strings.TrimPrefix(p, "./")
		dir := filepath.Join(root, filepath.FromSlash(p))
		if rec {
			dirs = append(dirs, dir+string(filepath.Separator))
		} else {
			dirs = append(dirs, dir)
		}
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		fdir := filepath.Dir(d.Pos.Filename)
		for _, dir := range dirs {
			if fdir == strings.TrimSuffix(dir, string(filepath.Separator)) ||
				(strings.HasSuffix(dir, string(filepath.Separator)) && strings.HasPrefix(fdir+string(filepath.Separator), dir)) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

func printCatalogue() {
	fmt.Println("xuivet: project-contract analyzers")
	fmt.Println()
	for _, name := range lint.AnalyzerNames() {
		fmt.Printf("  %-12s %s\n", name, lint.AnalyzerDoc(name))
	}
	fmt.Println()
	fmt.Println("annotation grammar (comments starting exactly with //xui:):")
	for _, d := range lint.Directives {
		fmt.Printf("  %-25s %s\n", d.Usage(), d.Doc)
	}
}

// printAnnotations lists the module's annotation inventory: every noalloc
// function, aliased/guarded/produced field, crosssend entry point, and
// waiver, plus the waivers that no longer suppress anything (run the
// analyzers first to know). Used by `make fix-annotations` to keep the
// annotation set honest.
func printAnnotations(suite *lint.Suite, root string) {
	suite.Run(nil)
	if _, err := suite.EscapeCheck(root, "", nil); err != nil {
		fatal(err)
	}

	rel := func(p string) string {
		if r, err := filepath.Rel(root, p); err == nil {
			return r
		}
		return p
	}
	a := suite.Annos

	fmt.Printf("//xui:noalloc functions (%d):\n", len(a.Noalloc))
	sort.Slice(a.Noalloc, func(i, j int) bool {
		if a.Noalloc[i].File != a.Noalloc[j].File {
			return a.Noalloc[i].File < a.Noalloc[j].File
		}
		return a.Noalloc[i].Pos.Line < a.Noalloc[j].Pos.Line
	})
	for _, f := range a.Noalloc {
		fmt.Printf("  %s:%d: %s\n", rel(f.File), f.Pos.Line, f.Name)
	}

	fmt.Printf("//xui:aliased fields (%d):\n", len(a.Aliased))
	for _, f := range a.Aliased {
		fmt.Printf("  %s:%d: %s.%s\n", rel(f.Pos.Filename), f.Pos.Line, f.Struct, f.Field)
	}
	fmt.Printf("//xui:guardedby fields (%d):\n", len(a.GuardedBy))
	for _, gb := range a.GuardedBy {
		name := gb.Owner + "." + gb.Field
		if gb.Local {
			name = gb.Field + " (local)"
		}
		fmt.Printf("  %s:%d: %s guarded by %s\n", rel(gb.Pos.Filename), gb.Pos.Line, name, gb.Mu)
	}
	fmt.Printf("//xui:crosssend functions (%d):\n", len(a.CrossSend))
	for _, cs := range a.CrossSend {
		fmt.Printf("  %s:%d: %s\n", rel(cs.Pos.Filename), cs.Pos.Line, cs.Name)
	}

	for _, d := range lint.Directives {
		if d.Place != lint.OnLine {
			continue
		}
		var lines []string
		for _, w := range a.Waivers {
			if w.Verb == d.Verb {
				lines = append(lines, fmt.Sprintf("  %s:%d: %q\n", rel(w.File), w.Line, w.Reason))
			}
		}
		fmt.Printf("//xui:%s waivers (%d):\n%s", d.Verb, len(lines), strings.Join(lines, ""))
	}

	stale := suite.StaleWaivers()
	fmt.Printf("stale waivers (%d):\n", len(stale))
	for _, d := range stale {
		sd := d
		sd.Pos.Filename = rel(sd.Pos.Filename)
		fmt.Printf("  %s\n", sd)
	}
	if len(stale) > 0 {
		os.Exit(1)
	}
}
