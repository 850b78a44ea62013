package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The module-wide call graph. Nodes are every declared function/method and
// every function literal in the module; edges are the call sites the
// analyzers follow, classified by how they were resolved. Resolution is
// deliberately bounded: direct calls and statically known method calls
// resolve exactly, and calls through func values resolve to every function
// the flow-insensitive binding pass saw assigned to that variable, field or
// parameter. A call the graph cannot resolve statically — an interface
// method, a func value with no recorded binding, a computed callee —
// produces no edge.

// EdgeKind classifies how a call site was resolved to its callee.
type EdgeKind uint8

const (
	// EdgeDirect is a statically resolved call to a declared function,
	// method, or an immediately invoked function literal.
	EdgeDirect EdgeKind = iota
	// EdgeFuncVal is a call through a func-typed variable, field or
	// parameter, resolved to a function the binding pass saw flow into it.
	EdgeFuncVal
)

// Node is one function in the module: a declared function or method
// (Obj/Decl set) or a function literal (Lit set).
type Node struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Pkg  *Package
	Name string // Func, (*T).Method, or Parent.func@line for literals
	File string
	// Start/End are the lexical extent of the whole function; BodyStart and
	// BodyEnd the line range of the body, for attributing compiler
	// diagnostics (escape analysis) to the innermost enclosing function.
	Start, End         token.Pos
	BodyStart, BodyEnd int
	Out                []*Edge
	cold               map[int]bool // lines spanned by panic(...) calls
}

// Body returns the function's body block.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Edge is one resolved call site.
type Edge struct {
	Caller *Node
	Callee *Node
	Kind   EdgeKind
	Pos    token.Pos
	GoStmt bool // the call is the function started by a go statement
}

// CallGraph holds the module's functions and call edges in source order.
type CallGraph struct {
	Nodes  []*Node
	byObj  map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
	byFile map[string][]*Node // nodes per file, for innermost-enclosing lookup
}

// NodeOf returns the node for a declared function object, or nil.
func (g *CallGraph) NodeOf(obj *types.Func) *Node { return g.byObj[obj] }

// EnclosingNode returns the innermost function whose extent contains the
// position, or nil when the position is at file scope.
func (g *CallGraph) EnclosingNode(file string, pos token.Pos) *Node {
	var best *Node
	for _, n := range g.byFile[file] {
		if pos < n.Start || pos >= n.End {
			continue
		}
		if best == nil || (n.Start >= best.Start && n.End <= best.End) {
			best = n
		}
	}
	return best
}

// enclosingAtLine returns the innermost function in file spanning the given
// body line — the escape-analysis attribution rule.
func (g *CallGraph) enclosingAtLine(file string, line int) *Node {
	var best *Node
	for _, n := range g.byFile[file] {
		if line < n.BodyStart || line > n.BodyEnd {
			continue
		}
		if best == nil || (n.BodyStart >= best.BodyStart && n.BodyEnd <= best.BodyEnd) {
			best = n
		}
	}
	return best
}

// BuildCallGraph constructs the module call graph over the suite's packages.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byObj:  map[*types.Func]*Node{},
		byLit:  map[*ast.FuncLit]*Node{},
		byFile: map[string][]*Node{},
	}
	g.addNodes(pkgs)
	flows := g.bindFuncValues(pkgs)
	for _, p := range pkgs {
		for _, f := range p.Files {
			g.addEdges(p, f, flows)
		}
	}
	return g
}

// addNodes creates a node for every function declaration and literal.
func (g *CallGraph) addNodes(pkgs []*Package) {
	for _, p := range pkgs {
		for _, f := range p.Files {
			// Named declarations first so literal names can cite their parent.
			for _, decl := range f.Decls {
				d, ok := decl.(*ast.FuncDecl)
				if !ok || d.Body == nil {
					continue
				}
				obj, _ := p.Info.Defs[d.Name].(*types.Func)
				n := g.newNode(p, d.Name.Name, d.Pos(), d.End(), d.Body)
				n.Obj = obj
				n.Decl = d
				n.Name = funcDisplayName(d)
				if obj != nil {
					g.byObj[obj] = n
				}
			}
			ast.Inspect(f, func(node ast.Node) bool {
				lit, ok := node.(*ast.FuncLit)
				if !ok {
					return true
				}
				parent := g.EnclosingNode(g.fileOf(p, lit.Pos()), lit.Pos())
				name := "func"
				if parent != nil {
					name = parent.Name + ".func"
				}
				n := g.newNode(p, name, lit.Pos(), lit.End(), lit.Body)
				n.Lit = lit
				n.Name = fmt.Sprintf("%s@%d", name, p.Fset.Position(lit.Pos()).Line)
				g.byLit[lit] = n
				return true
			})
		}
	}
}

func (g *CallGraph) fileOf(p *Package, pos token.Pos) string {
	return p.Fset.Position(pos).Filename
}

func (g *CallGraph) newNode(p *Package, name string, start, end token.Pos, body *ast.BlockStmt) *Node {
	n := &Node{
		Pkg:       p,
		Name:      name,
		File:      g.fileOf(p, start),
		Start:     start,
		End:       end,
		BodyStart: p.Fset.Position(body.Lbrace).Line,
		BodyEnd:   p.Fset.Position(body.Rbrace).Line,
		cold:      map[int]bool{},
	}
	// Lines spanned by panic(...) calls are crash paths; the noalloc
	// analyzer exempts them like it always has for annotated roots.
	ast.Inspect(body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			from := p.Fset.Position(call.Pos()).Line
			to := p.Fset.Position(call.End()).Line
			for l := from; l <= to; l++ {
				n.cold[l] = true
			}
		}
		return true
	})
	g.Nodes = append(g.Nodes, n)
	g.byFile[n.File] = append(g.byFile[n.File], n)
	return n
}

// bindFuncValues records, flow-insensitively, which functions flow into
// each func-typed variable, struct field, or parameter: assignments, var
// initializers, composite-literal fields, and arguments at statically
// resolved call sites. Var-to-var copies are closed with a fixpoint.
func (g *CallGraph) bindFuncValues(pkgs []*Package) map[types.Object][]*Node {
	flows := map[types.Object][]*Node{}
	copies := map[types.Object][]types.Object{}
	addFlow := func(dst types.Object, e ast.Expr, p *Package) {
		if dst == nil || e == nil {
			return
		}
		switch src := g.funcValue(p, e).(type) {
		case *Node:
			flows[dst] = append(flows[dst], src)
		case types.Object:
			copies[dst] = append(copies[dst], src)
		}
	}
	for _, p := range pkgs {
		pkg := p
		for _, f := range p.Files {
			ast.Inspect(f, func(node ast.Node) bool {
				switch n := node.(type) {
				case *ast.AssignStmt:
					if len(n.Lhs) != len(n.Rhs) {
						return true
					}
					for i, lhs := range n.Lhs {
						addFlow(lhsObject(pkg, lhs), n.Rhs[i], pkg)
					}
				case *ast.ValueSpec:
					for i, name := range n.Names {
						if i < len(n.Values) {
							addFlow(pkg.Info.Defs[name], n.Values[i], pkg)
						}
					}
				case *ast.CompositeLit:
					g.bindCompositeLit(pkg, n, addFlow)
				case *ast.CallExpr:
					g.bindCallArgs(pkg, n, addFlow)
				}
				return true
			})
		}
	}
	// Close var-to-var copies: dst inherits everything flowing into src.
	for changed := true; changed; {
		changed = false
		for dst, srcs := range copies {
			have := map[*Node]bool{}
			for _, n := range flows[dst] {
				have[n] = true
			}
			for _, src := range srcs {
				for _, n := range flows[src] {
					if !have[n] {
						have[n] = true
						flows[dst] = append(flows[dst], n)
						changed = true
					}
				}
			}
		}
	}
	return flows
}

// funcValue resolves an expression that may denote a function: a declared
// function/method (its *Node), a function literal (its *Node), or a
// func-typed variable/field whose bindings should be copied (types.Object).
func (g *CallGraph) funcValue(p *Package, e ast.Expr) any {
	switch e := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return g.byLit[e]
	case *ast.Ident:
		switch obj := p.Info.Uses[e].(type) {
		case *types.Func:
			if n := g.byObj[obj]; n != nil {
				return n
			}
		case *types.Var:
			if isFuncType(obj.Type()) {
				return types.Object(obj)
			}
		}
	case *ast.SelectorExpr:
		switch obj := p.Info.Uses[e.Sel].(type) {
		case *types.Func: // method value, e.g. h := e.epochWork
			if n := g.byObj[obj]; n != nil {
				return n
			}
		case *types.Var:
			if isFuncType(obj.Type()) {
				return types.Object(obj)
			}
		}
	}
	return nil
}

func isFuncType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

func lhsObject(p *Package, lhs ast.Expr) types.Object {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := p.Info.Defs[lhs]; obj != nil {
			return obj
		}
		return p.Info.Uses[lhs]
	case *ast.SelectorExpr:
		return p.Info.Uses[lhs.Sel]
	}
	return nil
}

// bindCompositeLit binds functions stored into struct fields by composite
// literals, keyed or positional.
func (g *CallGraph) bindCompositeLit(p *Package, cl *ast.CompositeLit, addFlow func(types.Object, ast.Expr, *Package)) {
	tv, ok := p.Info.Types[cl]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				addFlow(p.Info.Uses[key], kv.Value, p)
			}
			continue
		}
		if i < st.NumFields() {
			addFlow(st.Field(i), elt, p)
		}
	}
}

// bindCallArgs binds function arguments to the parameters of statically
// resolved module callees, so a callback passed once is visible wherever
// the callee invokes its parameter.
func (g *CallGraph) bindCallArgs(p *Package, call *ast.CallExpr, addFlow func(types.Object, ast.Expr, *Package)) {
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		callee, _ = p.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = p.Info.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil || g.byObj[callee] == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		if i >= sig.Params().Len() {
			break // variadic tail: not bound
		}
		addFlow(sig.Params().At(i), arg, p)
	}
}

// addEdges walks one file and records an edge per call site.
func (g *CallGraph) addEdges(p *Package, f *ast.File, flows map[types.Object][]*Node) {
	// Which call expressions are the operand of a go statement.
	goCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(f, func(node ast.Node) bool {
		if n, ok := node.(*ast.GoStmt); ok {
			goCalls[n.Call] = true
		}
		return true
	})
	file := g.fileOf(p, f.Pos())
	ast.Inspect(f, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		caller := g.EnclosingNode(file, call.Pos())
		if caller == nil {
			return true // package-scope initializer expressions
		}
		for _, e := range g.resolveCall(p, call, flows) {
			e.Caller = caller
			e.GoStmt = goCalls[call]
			caller.Out = append(caller.Out, e)
		}
		return true
	})
}

// resolveCall classifies one call site. Calls to non-module (standard
// library) functions and interface methods produce no edge: the graph
// covers statically known module code, and analyzers that care about
// specific stdlib calls match them in the body scan where full position and
// type information is at hand.
func (g *CallGraph) resolveCall(p *Package, call *ast.CallExpr, flows map[types.Object][]*Node) []*Edge {
	fun := ast.Unparen(call.Fun)
	// Generic instantiation f[T](...) — unwrap to the identifier.
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	if tv, ok := p.Info.Types[fun]; ok && tv.IsType() {
		return nil // conversion
	}
	switch fun := fun.(type) {
	case *ast.FuncLit:
		if n := g.byLit[fun]; n != nil {
			return []*Edge{{Callee: n, Kind: EdgeDirect, Pos: call.Pos()}}
		}
	case *ast.Ident:
		switch obj := p.Info.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName, nil:
			return nil
		case *types.Func:
			if n := g.byObj[obj]; n != nil {
				return []*Edge{{Callee: n, Kind: EdgeDirect, Pos: call.Pos()}}
			}
			return nil // standard library
		case *types.Var:
			return g.funcValEdges(call, flows[obj])
		}
	case *ast.SelectorExpr:
		switch obj := p.Info.Uses[fun.Sel].(type) {
		case *types.Func:
			if n := g.byObj[obj]; n != nil {
				return []*Edge{{Callee: n, Kind: EdgeDirect, Pos: call.Pos()}}
			}
			return nil // standard library or interface method
		case *types.Var: // func-typed field
			return g.funcValEdges(call, flows[obj])
		}
	}
	return nil
}

func (g *CallGraph) funcValEdges(call *ast.CallExpr, targets []*Node) []*Edge {
	seen := map[*Node]bool{}
	var edges []*Edge
	for _, n := range targets {
		if seen[n] {
			continue
		}
		seen[n] = true
		edges = append(edges, &Edge{Callee: n, Kind: EdgeFuncVal, Pos: call.Pos()})
	}
	return edges
}
