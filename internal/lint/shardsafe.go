package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzerShardSafe enforces the sharded engine's delivery disciplines,
// which are invisible to per-function analysis:
//
//  1. Single-producer mailboxes: a field annotated //xui:producer <f,...>
//     may be written — or have its address taken, which is how the shard
//     engine's push reaches its SPSC mailboxes — only inside the named
//     functions. Everything else gets read-only access.
//  2. Epoch-derived delivery times: every call site of a //xui:crosssend
//     function must pass a "when" argument tainted by an epoch-boundary
//     time source (a .Now() or .Lookahead() call, the epochEnd bound, or a
//     forwarded "when" parameter). A cross-shard message stamped with
//     anything else can land inside the receiving shard's current epoch
//     and break the conservative time-window synchronization.
//
// Findings are waivable with //xui:shardok <reason>.
func analyzerShardSafe() *Analyzer {
	return &Analyzer{
		Name: "shardsafe",
		Doc:  "enforce single-producer mailbox writes and epoch-derived cross-shard send times",
		run:  runShardSafe,
	}
}

func runShardSafe(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	checkProducers(s, p, report)
	checkCrossSends(s, p, report)
}

// checkProducers flags writes (and address-takes) of //xui:producer fields
// outside the annotated writer set.
func checkProducers(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	if len(s.Annos.Producer) == 0 {
		return
	}
	g := s.Graph()
	// producerOf resolves a write target to its annotation: the base
	// selector under any number of index/star/paren wrappers.
	producerOf := func(e ast.Expr) *ProducerAnno {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				obj := p.Info.Uses[x.Sel]
				for _, pa := range s.Annos.Producer {
					if pa.Obj == obj {
						return pa
					}
				}
				return nil
			default:
				return nil
			}
		}
	}
	flag := func(pos token.Pos, pa *ProducerAnno, what string) {
		encl := "package scope"
		if n := g.EnclosingNode(p.Fset.Position(pos).Filename, pos); n != nil {
			for _, w := range pa.Writers {
				if n.Decl != nil && n.Decl.Name.Name == w {
					return // an annotated producer
				}
			}
			encl = n.Name
		}
		report(pos, fmt.Sprintf(
			"%s of single-producer field %s.%s (//xui:producer %s) in %s: only the annotated producers may write it",
			what, pa.Struct, pa.Field, strings.Join(pa.Writers, ","), encl))
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch n := node.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if pa := producerOf(lhs); pa != nil {
						flag(lhs.Pos(), pa, "write")
					}
				}
			case *ast.IncDecStmt:
				if pa := producerOf(n.X); pa != nil {
					flag(n.X.Pos(), pa, "write")
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if pa := producerOf(n.X); pa != nil {
						flag(n.Pos(), pa, "address-take")
					}
				}
			}
			return true
		})
	}
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
