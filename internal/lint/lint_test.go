package lint

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestDeterminismFixture(t *testing.T) {
	s := runFixture(t, "det", "determinism")
	// The fixture contains exactly one stale waiver (StaleWaiverHere);
	// the two legal waivers must have been consumed.
	stale := s.StaleWaivers()
	if len(stale) != 1 {
		t.Fatalf("want exactly 1 stale waiver, got %d: %v", len(stale), stale)
	}
	if !strings.Contains(stale[0].Message, "nothing left to waive") {
		t.Errorf("stale waiver reason not surfaced: %s", stale[0])
	}
}

func TestNilProbeFixture(t *testing.T) {
	runFixture(t, "nilprobe", "nilprobe")
}

func TestSingleGoroutineFixture(t *testing.T) {
	runFixture(t, "sg", "sgoroutine")
}

func TestAliasFixture(t *testing.T) {
	runFixture(t, "alias", "alias")
}

func TestLockCheckFixture(t *testing.T) {
	s := runFixture(t, "lockcheck", "lockcheck")
	stale := s.StaleWaivers()
	if len(stale) != 1 {
		t.Fatalf("want exactly 1 stale waiver, got %d: %v", len(stale), stale)
	}
	if !strings.Contains(stale[0].Message, "stale //xui:lockok waiver") {
		t.Errorf("stale waiver reason not surfaced: %s", stale[0])
	}
}

func TestRecoverSafeFixture(t *testing.T) {
	s := runFixture(t, "recoversafe", "recoversafe")
	stale := s.StaleWaivers()
	if len(stale) != 1 {
		t.Fatalf("want exactly 1 stale waiver, got %d: %v", len(stale), stale)
	}
	if !strings.Contains(stale[0].Message, "stale //xui:norecover waiver") {
		t.Errorf("stale waiver reason not surfaced: %s", stale[0])
	}
}

func TestShardSafeFixture(t *testing.T) {
	s := runFixture(t, "shardsafe", "shardsafe")
	stale := s.StaleWaivers()
	if len(stale) != 1 {
		t.Fatalf("want exactly 1 stale waiver, got %d: %v", len(stale), stale)
	}
	if !strings.Contains(stale[0].Message, "stale //xui:shardok waiver") {
		t.Errorf("stale waiver reason not surfaced: %s", stale[0])
	}
}

// TestStaleWaiversOnlyForAnalyzersThatRan proves the stale audit judges a
// waiver only against its owning analyzer: the lockcheck fixture's
// //xui:lockok waivers are not stale after a determinism-only run.
func TestStaleWaiversOnlyForAnalyzersThatRan(t *testing.T) {
	s, _ := loadFixture(t, "lockcheck")
	s.Run(map[string]bool{"determinism": true})
	if stale := s.StaleWaivers(); len(stale) != 0 {
		t.Errorf("want no stale waivers after a determinism-only run, got %d: %v", len(stale), stale)
	}
}

// TestDirectiveTable checks the //xui: directive table against itself, the
// analyzer set and the package doc: verbs are unique, every owner is a real
// analyzer, and every verb has a line in the doc's annotation grammar.
func TestDirectiveTable(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "lint.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	_, grammar, ok := strings.Cut(f.Doc.Text(), "Annotation grammar")
	if !ok {
		t.Fatal("package doc has no annotation grammar block")
	}
	analyzers := map[string]bool{}
	for _, name := range AnalyzerNames() {
		analyzers[name] = true
	}
	seen := map[string]bool{}
	for _, d := range Directives {
		if seen[d.Verb] {
			t.Errorf("verb %q appears twice", d.Verb)
		}
		seen[d.Verb] = true
		if !analyzers[d.Analyzer] {
			t.Errorf("//xui:%s: owner %q is not an analyzer", d.Verb, d.Analyzer)
		}
		if !regexp.MustCompile(`(?m)^\s*//xui:` + regexp.QuoteMeta(d.Verb) + `(\s|$)`).MatchString(grammar) {
			t.Errorf("//xui:%s is missing from the package doc's annotation grammar", d.Verb)
		}
	}
}

// TestInterprocDeterminism proves the boundary check sees through wrapper
// layers in another package: simpkg.Bad -> util.Stamp -> util.WallClock ->
// time.Now is reported at the boundary call with the witness path, while
// the deterministic call and the waived call are not.
func TestInterprocDeterminism(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "detmod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, _, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{DeterminismPkgs: []string{"detmod/simpkg"}}
	s := NewSuite(cfg, pkgs)
	diags := s.Run(map[string]bool{"determinism": true})
	if len(diags) != 1 {
		t.Fatalf("want exactly 1 boundary diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d.Message, "Stamp reaches time.Now") {
		t.Errorf("boundary source not named: %s", d)
	}
	if !strings.Contains(d.Message, "via Stamp -> WallClock -> time.Now") {
		t.Errorf("witness path missing: %s", d)
	}
	if len(d.Path) == 0 {
		t.Errorf("no structured blame path on %s", d)
	}
	if stale := s.StaleWaivers(); len(stale) != 0 {
		t.Errorf("the //xui:nondet waiver in Waived was not consumed: %v", stale)
	}
}

// TestAnnotationValidation pins the malformed-annotation diagnostics:
// missing reasons, misplaced function/field annotations, unknown verbs.
func TestAnnotationValidation(t *testing.T) {
	s, _ := loadFixture(t, "annos")
	diags := s.Run(nil)
	expected := []string{
		// The sync import needed by the guardedby cases trips the
		// single-goroutine import check — the fixture config treats the
		// fixture as a simulation package.
		"import of sync violates the single-goroutine simulation contract",
		"//xui:nondet needs a reason",
		"//xui:alloc needs a reason",
		"misplaced //xui:noalloc",
		"misplaced //xui:aliased",
		"is not a slice",
		"unknown annotation //xui:frobnicate",
		"misplaced //xui:guardedby",
		"//xui:lockok needs a reason",
		"Locked has no field named missing",
		"field Locked.notMu is not a sync.Mutex or sync.RWMutex",
		"//xui:crosssend function NoWhen has no parameter named \"when\"",
	}
	if len(diags) != len(expected) {
		t.Errorf("want %d diagnostics, got %d:", len(expected), len(diags))
		for _, d := range diags {
			t.Logf("  %s", d)
		}
	}
	for _, want := range expected {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic containing %q", want)
		}
	}
	// The valid annotations in the same fixture were accepted.
	if len(s.Annos.Noalloc) != 1 || s.Annos.Noalloc[0].Name != "ValidNoalloc" {
		t.Errorf("valid //xui:noalloc not collected: %+v", s.Annos.Noalloc)
	}
	if len(s.Annos.Aliased) != 1 || s.Annos.Aliased[0].Field != "rows" {
		t.Errorf("valid //xui:aliased not collected: %+v", s.Annos.Aliased)
	}
	if len(s.Annos.GuardedBy) != 1 || s.Annos.GuardedBy[0].Field != "ok" {
		t.Errorf("valid //xui:guardedby not collected: %+v", s.Annos.GuardedBy)
	}
	if len(s.Annos.CrossSend) != 1 {
		t.Errorf("valid //xui:crosssend not collected: %+v", s.Annos.CrossSend)
	}
}

// TestEscapeCheckFixture proves the noalloc analyzer fails when a
// deliberate heap escape sits in a //xui:noalloc function — and only
// then: the clean function, the panic-only path and the //xui:alloc
// waived line all pass.
func TestEscapeCheckFixture(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "escmod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, modPath, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(DefaultConfig(modPath), pkgs)
	diags, err := s.EscapeCheck(root, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("want 2 escape diagnostics (Leaky + transitive leakyHelper), got %d: %v", len(diags), diags)
	}
	var leaky, transitive *Diagnostic
	for i := range diags {
		switch {
		case strings.Contains(diags[i].Message, "noalloc function Leaky"):
			leaky = &diags[i]
		case strings.Contains(diags[i].Message, "TransitiveRoot"):
			transitive = &diags[i]
		}
	}
	if leaky == nil {
		t.Fatalf("no diagnostic attributed to Leaky: %v", diags)
	}
	if !strings.Contains(leaky.Message, "escapes to heap") && !strings.Contains(leaky.Message, "moved to heap") {
		t.Errorf("diagnostic does not carry the compiler's reason: %s", *leaky)
	}
	if transitive == nil {
		t.Fatalf("no transitive diagnostic blaming TransitiveRoot: %v", diags)
	}
	if !strings.Contains(transitive.Message, "reached from //xui:noalloc TransitiveRoot") {
		t.Errorf("transitive diagnostic does not name its root: %s", *transitive)
	}
	if !strings.Contains(transitive.Message, "via leakyHelper") {
		t.Errorf("transitive diagnostic has no blame chain: %s", *transitive)
	}
	if len(transitive.Path) == 0 {
		t.Errorf("no structured blame path on %s", *transitive)
	}
	// The //xui:alloc waivers in Waived and VouchedRoot were consumed (the
	// latter vouches for the whole vouchedHelper subtree), so nothing is
	// stale and vouchedHelper's allocation is not reported.
	if stale := s.StaleWaivers(); len(stale) != 0 {
		t.Errorf("unexpected stale waivers: %v", stale)
	}
}

// TestModuleCleanAtHEAD is the gate the tree must hold: the full analyzer
// suite, including the compiler-backed escape check, reports nothing on
// the module as committed.
func TestModuleCleanAtHEAD(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks and escape-compiles the whole module")
	}
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, modPath, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(DefaultConfig(modPath), pkgs)
	for _, d := range s.Run(nil) {
		t.Errorf("%s", d)
	}
	escape, err := s.EscapeCheck(root, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range escape {
		t.Errorf("%s", d)
	}
	for _, d := range s.StaleWaivers() {
		t.Errorf("%s", d)
	}
}
