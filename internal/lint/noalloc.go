package lint

import (
	"fmt"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// analyzerNoalloc is the static half of the zero-allocation contract: it
// validates //xui:noalloc placement (collectAnnotations reports misuse
// under this analyzer's name). The dynamic half is EscapeCheck, which asks
// the real compiler: it runs `go build -gcflags=-m` and fails on any heap
// allocation the escape analysis attributes to an annotated function — or,
// since v2, to anything in its statically reachable call tree: the closure
// over direct call edges of the module call graph, so a hot loop cannot
// hide an allocation one helper down. Findings inside a callee carry the
// call-path blame chain from the annotated root.
//
// Closure rules: direct edges only (func-value edges are not followed,
// and interface calls have no edge — the annotation asserts a statically
// known hot path); a callee that is itself //xui:noalloc is not descended
// into (its own contract covers it, avoiding double reports); an
// //xui:alloc waiver on a call line vouches for that callee and prunes the
// edge. Crash paths (lines spanned by panic calls) are exempt everywhere
// in the tree, and deliberate cold-path allocations can be waived
// line-by-line with //xui:alloc <reason>.
func analyzerNoalloc() *Analyzer {
	return &Analyzer{
		Name: "noalloc",
		Doc:  "verify //xui:noalloc functions and their reachable call trees against the compiler's -m escape-analysis diagnostics",
		// No per-package run: the static half lives in annotation
		// collection, the dynamic half is EscapeCheck.
	}
}

// escDiagRe matches one compiler diagnostic: path.go:line:col: message.
var escDiagRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// isAllocDiag reports whether a -m message describes a heap allocation
// site (as opposed to inlining notes or parameter-leak facts).
func isAllocDiag(msg string) bool {
	return strings.Contains(msg, "escapes to heap") || strings.HasPrefix(msg, "moved to heap")
}

// rootClosure is one //xui:noalloc function with its reachable call tree:
// via maps every reached node to the edge that discovered it (nil for the
// root itself), which is also the witness path for blame chains.
type rootClosure struct {
	fa   *FuncAnno
	root *Node
	via  map[*Node]*Edge
}

// path renders the call chain from the annotated root down to node.
func (rc *rootClosure) path(fset *token.FileSet, node *Node) []Frame {
	var rev []Frame
	for n := node; ; {
		e := rc.via[n]
		if e == nil {
			break
		}
		p := fset.Position(e.Pos)
		rev = append(rev, Frame{Func: n.Name, File: p.Filename, Line: p.Line})
		n = e.Caller
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// noallocClosures resolves every annotated function to its graph node and
// computes the reachable closure over direct call edges.
func (s *Suite) noallocClosures() []*rootClosure {
	g := s.Graph()
	rootNodes := map[*Node]bool{}
	nodeOf := map[*FuncAnno]*Node{}
	for _, fa := range s.Annos.Noalloc {
		for _, n := range g.byFile[fa.File] {
			if n.Decl != nil && n.BodyStart == fa.BodyStart && n.BodyEnd == fa.BodyEnd {
				rootNodes[n] = true
				nodeOf[fa] = n
				break
			}
		}
	}
	var roots []*rootClosure
	for _, fa := range s.Annos.Noalloc {
		root := nodeOf[fa]
		if root == nil {
			continue
		}
		rc := &rootClosure{fa: fa, root: root, via: map[*Node]*Edge{root: nil}}
		queue := []*Node{root}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			for _, e := range n.Out {
				if e.Kind != EdgeDirect {
					continue
				}
				if _, seen := rc.via[e.Callee]; seen {
					continue
				}
				if rootNodes[e.Callee] && e.Callee != root {
					continue // its own //xui:noalloc contract covers it
				}
				// An //xui:alloc waiver on the call line vouches for the
				// callee at this site: prune the edge.
				if s.waive("noalloc", n.Pkg.Fset.Position(e.Pos)) {
					continue
				}
				rc.via[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
		roots = append(roots, rc)
	}
	return roots
}

// EscapeCheck runs the Go compiler's escape analysis over every package
// reached by a //xui:noalloc call tree and returns a diagnostic for each
// heap allocation attributed to a reached function body. moduleDir is the
// directory go build runs in (the module root). goTool overrides the go
// binary for tests; "" means "go". only, when non-nil, restricts the check
// to annotated roots whose closure touches one of the listed import paths
// (the -since incremental mode).
func (s *Suite) EscapeCheck(moduleDir, goTool string, only map[string]bool) ([]Diagnostic, error) {
	s.ran["noalloc"] = true
	if len(s.Annos.Noalloc) == 0 {
		return nil, nil
	}
	if goTool == "" {
		goTool = "go"
	}
	g := s.Graph()
	roots := s.noallocClosures()
	if only != nil {
		var kept []*rootClosure
		for _, rc := range roots {
			for n := range rc.via {
				if only[n.Pkg.Path] {
					kept = append(kept, rc)
					break
				}
			}
		}
		roots = kept
	}
	if len(roots) == 0 {
		return nil, nil
	}

	// Which roots reach each node, in annotation order (first is blamed),
	// and the package set the compiler must analyze.
	reachedBy := map[*Node][]*rootClosure{}
	pkgSet := map[string]bool{}
	reachedNames := map[string]bool{}
	for _, rc := range roots {
		for n := range rc.via {
			reachedBy[n] = append(reachedBy[n], rc)
			pkgSet[n.Pkg.Path] = true
			reachedNames[n.Name] = true
		}
	}
	var pkgs []string
	for p := range pkgSet {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)

	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command(goTool, args...)
	cmd.Dir = moduleDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		// The compiler exits nonzero on real build errors, not on -m
		// diagnostics; surface those directly.
		return nil, fmt.Errorf("lint: %s %s failed: %v\n%s", goTool, strings.Join(args, " "), err, out)
	}

	lines := strings.Split(string(out), "\n")

	// First pass: map inline sites to their callees. When f is inlined, the
	// compiler re-reports the allocations of f's body attributed to the
	// call site's position; reached functions are checked at their own
	// source lines in their own package compile, so the replayed copy would
	// double-report (or dodge the callee's //xui:alloc waivers).
	inlinedReached := map[string]bool{}
	for _, line := range lines {
		m := escDiagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		callee, ok := strings.CutPrefix(m[4], "inlining call to ")
		if !ok {
			continue
		}
		for name := range reachedNames {
			if callee == name || strings.HasSuffix(callee, "."+name) {
				inlinedReached[m[1]+":"+m[2]+":"+m[3]] = true
				break
			}
		}
	}

	var diags []Diagnostic
	curPkg := ""
	for _, line := range lines {
		if p, ok := strings.CutPrefix(line, "# "); ok {
			curPkg = strings.TrimSpace(p)
			continue
		}
		m := escDiagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if !isAllocDiag(m[4]) {
			continue
		}
		if inlinedReached[m[1]+":"+m[2]+":"+m[3]] {
			continue
		}
		file, lineNo := m[1], atoi(m[2])
		col := atoi(m[3])
		// Compiler paths are relative to the build directory.
		abs := file
		if !filepath.IsAbs(file) {
			abs = filepath.Join(moduleDir, file)
		}
		node := g.enclosingAtLine(abs, lineNo)
		if node == nil {
			continue
		}
		rcs := reachedBy[node]
		if len(rcs) == 0 {
			continue
		}
		// Inlining replays a function's source positions when compiling its
		// importers; the per-function contract is judged in the function's
		// own package compile, where positions are not context-shifted.
		if curPkg != "" && node.Pkg.Path != curPkg {
			continue
		}
		if node.cold[lineNo] {
			continue
		}
		pos := token.Position{Filename: abs, Line: lineNo, Column: col}
		if s.waive("noalloc", pos) {
			continue
		}
		rc := rcs[0]
		if node == rc.root {
			diags = append(diags, Diagnostic{
				Analyzer: "noalloc",
				Pos:      pos,
				Message:  fmt.Sprintf("heap allocation in //xui:noalloc function %s: %s (fix it, or waive a cold path with //xui:alloc <reason>)", rc.fa.Name, m[4]),
			})
			continue
		}
		frames := rc.path(node.Pkg.Fset, node)
		diags = append(diags, Diagnostic{
			Analyzer: "noalloc",
			Pos:      pos,
			Message: fmt.Sprintf(
				"heap allocation in %s, reached from //xui:noalloc %s (via %s): %s (fix it, waive the line with //xui:alloc <reason>, or vouch for the callee with //xui:alloc on the call line)",
				node.Name, rc.fa.Name, pathString(frames), m[4]),
			Path: frames,
		})
	}
	sortDiags(diags)
	return diags, nil
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
