package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FindModuleRoot walks up from dir to the nearest directory containing a
// go.mod file.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if p, err := strconv.Unquote(rest); err == nil {
				return p, nil
			}
			return rest, nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// LoadModule parses and type-checks every package in the module rooted at
// root (non-test files only), resolving module-internal imports against
// the freshly checked packages — so type objects are shared module-wide —
// and everything else (the standard library) from source via go/importer.
// It returns the packages in dependency order plus the module path.
func LoadModule(root string) ([]*Package, string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, "", err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, "", err
	}

	fset := token.NewFileSet()
	type parsed struct {
		path    string
		dir     string
		files   []*ast.File
		imports map[string]bool
	}
	byPath := map[string]*parsed{}

	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		files, perr := parsePackageDir(fset, path)
		if perr != nil {
			return perr
		}
		if len(files) == 0 {
			return nil
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			return rerr
		}
		imp := modPath
		if rel != "." {
			imp = modPath + "/" + filepath.ToSlash(rel)
		}
		pk := &parsed{path: imp, dir: path, files: files, imports: map[string]bool{}}
		for _, f := range files {
			for _, is := range f.Imports {
				p, _ := strconv.Unquote(is.Path.Value)
				if p == modPath || strings.HasPrefix(p, modPath+"/") {
					pk.imports[p] = true
				}
			}
		}
		byPath[imp] = pk
		return nil
	})
	if err != nil {
		return nil, "", err
	}

	// Topological order over module-internal imports so each package's
	// dependencies are checked (and shared) before it.
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(p string) error
	visit = func(p string) error {
		switch state[p] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", p)
		case 2:
			return nil
		}
		state[p] = 1
		deps := make([]string, 0, len(byPath[p].imports))
		for d := range byPath[p].imports {
			deps = append(deps, d)
		}
		sort.Strings(deps)
		for _, d := range deps {
			if byPath[d] == nil {
				continue // not part of this module's source tree
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[p] = 2
		order = append(order, p)
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, "", err
		}
	}

	mi := &moduleImporter{
		done:     map[string]*types.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	var pkgs []*Package
	for _, p := range order {
		pk := byPath[p]
		lp, cerr := typeCheck(fset, pk.path, pk.files, mi)
		if cerr != nil {
			return nil, "", fmt.Errorf("lint: type-checking %s: %w", pk.path, cerr)
		}
		lp.Dir = pk.dir
		mi.done[pk.path] = lp.Types
		pkgs = append(pkgs, lp)
	}
	return pkgs, modPath, nil
}

func parsePackageDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func typeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tp, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tp, Info: info}, nil
}

// moduleImporter serves module-internal packages already checked by the
// loader and falls back to the source importer (standard library) for the
// rest.
type moduleImporter struct {
	done     map[string]*types.Package
	fallback types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.done[path]; p != nil {
		return p, nil
	}
	return m.fallback.Import(path)
}
