package lint

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: each package under testdata/src carries
// `// want `+"`regexp`"+` comments on the lines where a diagnostic is
// expected. A fixture run fails on any unexpected diagnostic and on any
// unmatched expectation, so the fixtures pin the exact diagnostic set.

func fixtureConfig(path string) *Config {
	return &Config{
		DeterminismPkgs:     []string{path},
		SingleGoroutinePkgs: []string{path},
		LockCheckPkgs:       []string{path},
		RecoverSafePkgs:     []string{path},
		ProbeTypes:          []string{"Probe", "IntrObserver", "CheckProbe"},
	}
}

// loadPackageDir loads a single fixture package directory as importPath.
// Imports resolve from source.
func loadPackageDir(dir, importPath string) (*Package, error) {
	fset := token.NewFileSet()
	files, err := parsePackageDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	mi := &moduleImporter{
		done:     map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	p, err := typeCheck(fset, importPath, files, mi)
	if err != nil {
		return nil, err
	}
	p.Dir = dir
	return p, nil
}

func loadFixture(t *testing.T, name string) (*Suite, *Package) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	p, err := loadPackageDir(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return NewSuite(fixtureConfig("fixture/"+name), []*Package{p}), p
}

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("`([^`]+)`")

func parseWants(t *testing.T, p *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				_, after, ok := strings.Cut(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				ms := wantRe.FindAllStringSubmatch(after, -1)
				if len(ms) == 0 {
					t.Fatalf("%s: malformed want comment (no `regexp`)", pos)
				}
				for _, m := range ms {
					wants = append(wants, &expectation{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   regexp.MustCompile(m[1]),
					})
				}
			}
		}
	}
	return wants
}

// runFixture runs one analyzer over one fixture package and asserts the
// diagnostic set matches the fixture's want comments exactly.
func runFixture(t *testing.T, fixture, analyzer string) *Suite {
	t.Helper()
	s, p := loadFixture(t, fixture)
	wants := parseWants(t, p)
	diags := s.Run(map[string]bool{analyzer: true})
	for _, d := range diags {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return s
}
