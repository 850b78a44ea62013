package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerShardSafe enforces the sharded engine's delivery discipline,
// which is invisible to per-function analysis: every call site of a
// //xui:crosssend function must pass a "when" argument tainted by an
// epoch-boundary time source (a .Now() or .Lookahead() call, the epochEnd
// bound, or a forwarded "when" parameter). A cross-shard message stamped
// with anything else can land inside the receiving shard's current epoch
// and break the conservative time-window synchronization.
//
// Findings are waivable with //xui:shardok <reason>.
func analyzerShardSafe() *Analyzer {
	return &Analyzer{
		Name: "shardsafe",
		Doc:  "enforce epoch-derived cross-shard send times",
		run:  runShardSafe,
	}
}

func runShardSafe(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	checkCrossSends(s, p, report)
}

// checkCrossSends verifies the "when" argument at every //xui:crosssend
// call site is epoch-tainted.
func checkCrossSends(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	if len(s.Annos.CrossSend) == 0 {
		return
	}
	g := s.Graph()
	byObj := map[types.Object]*CrossSendAnno{}
	for _, cs := range s.Annos.CrossSend {
		byObj[cs.Obj] = cs
	}
	// An expression is an epoch source when it reads the shard clock or the
	// epoch bound: x.Now(), x.Lookahead(), or the epochEnd field.
	isEpochSource := func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
				return sel.Sel.Name == "Now" || sel.Sel.Name == "Lookahead"
			}
		case *ast.SelectorExpr:
			return e.Sel.Name == "epochEnd"
		case *ast.Ident:
			return e.Name == "epochEnd"
		}
		return false
	}
	for _, f := range p.Files {
		file := p.Fset.Position(f.Pos()).Filename
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			var callee types.Object
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				callee = p.Info.Uses[fun]
			case *ast.SelectorExpr:
				callee = p.Info.Uses[fun.Sel]
			}
			cs := byObj[callee]
			if cs == nil || cs.WhenIdx >= len(call.Args) {
				return true
			}
			encl := g.EnclosingNode(file, call.Pos())
			if encl == nil {
				return true
			}
			if encl.Obj == cs.Obj {
				return true // the function's own wrapper layers
			}
			// Forwarding wrappers: the enclosing function's own "when"
			// parameter is trusted — its callers are checked in turn.
			var seed []types.Object
			if encl.Obj != nil {
				sig := encl.Obj.Type().(*types.Signature)
				for i := 0; i < sig.Params().Len(); i++ {
					if sig.Params().At(i).Name() == "when" {
						seed = append(seed, sig.Params().At(i))
					}
				}
			}
			taint := newExprTaint(p, encl.Body(), isEpochSource, seed)
			if !taint.Tainted(call.Args[cs.WhenIdx]) {
				report(call.Pos(), fmt.Sprintf(
					"cross-shard send %s called with a \"when\" not derived from an epoch-boundary source (.Now(), .Lookahead(), epochEnd): a raw timestamp can land inside the receiver's current epoch (waive with //xui:shardok <reason> if provably epoch-safe)",
					cs.Name))
			}
			return true
		})
	}
}
