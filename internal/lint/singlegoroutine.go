package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// analyzerSingleGoroutine enforces the event kernel's concurrency
// contract: inside internal/sim, the Tier-1 cycle loop (internal/cpu) and
// the sharded Tier-2 engine (internal/shard), concurrency is modelled with
// events, never spawned. Any `go` statement, channel machinery, or sync
// primitive there either breaks determinism or hides a data race from the
// model, so the analyzer forbids it.
func analyzerSingleGoroutine() *Analyzer {
	return &Analyzer{
		Name: "sgoroutine",
		Doc:  "forbid go statements, channels and sync primitives in the single-goroutine simulation kernel",
		run:  runSingleGoroutine,
	}
}

func runSingleGoroutine(s *Suite, p *Package, report func(pos token.Pos, msg string, path ...Frame)) {
	if !matchPkg(p.Path, s.Cfg.SingleGoroutinePkgs) {
		return
	}
	const contract = "the single-goroutine simulation contract: model concurrency with events, run cross-run parallelism through internal/sweep"
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "sync" || path == "sync/atomic" {
				report(imp.Pos(), "import of "+path+" violates "+contract)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(), "go statement violates "+contract)
			case *ast.SendStmt:
				report(n.Pos(), "channel send violates "+contract)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n.Pos(), "channel receive violates "+contract)
				}
			case *ast.SelectStmt:
				report(n.Pos(), "select statement violates "+contract)
			case *ast.ChanType:
				report(n.Pos(), "channel type violates "+contract)
			case *ast.RangeStmt:
				if tv, ok := p.Info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						report(n.Pos(), "range over a channel violates "+contract)
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
					if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
						report(n.Pos(), "close of a channel violates "+contract)
					}
				}
			}
			return true
		})
	}
}
