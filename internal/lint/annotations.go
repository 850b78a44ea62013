package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Placement says where a //xui: directive may appear.
type Placement uint8

const (
	// OnLine is a waiver: a comment that waives its owning analyzer's
	// diagnostics on its own line (trailing comment) and on the next line
	// (comment above the statement). Its reason is mandatory.
	OnLine Placement = iota
	// OnFunc is part of a function declaration's doc comment.
	OnFunc
	// OnField annotates a struct field.
	OnField
	// OnFieldOrLocal annotates a struct field or a var in a parenthesized
	// var block.
	OnFieldOrLocal
)

// rule explains a misplaced directive of this placement.
func (pl Placement) rule() string {
	switch pl {
	case OnFunc:
		return "it must be part of a function declaration's doc comment"
	case OnField:
		return "it must annotate a struct field"
	default:
		return "it must annotate a struct field or a var in a parenthesized var block"
	}
}

// Directive is one //xui: verb: the analyzer that owns its diagnostics
// (and, for a waiver, the diagnostics it suppresses), where it may appear,
// and its line in the grammar that `xuivet -list` prints.
type Directive struct {
	Verb     string
	Analyzer string
	Place    Placement
	Arg      string // argument syntax, "" when the directive takes none
	Doc      string
}

// Usage renders the directive with its argument: "//xui:nondet <reason>".
func (d *Directive) Usage() string {
	return strings.TrimSpace("//" + directivePrefix + d.Verb + " " + d.Arg)
}

// Directives is every //xui: verb, in grammar order. Collection,
// placement and unknown-verb validation, waiving, the stale-waiver audit
// and xuivet's -list and -annotations output all derive from it.
var Directives = []Directive{
	{"nondet", "determinism", OnLine, "<reason>", "waive a determinism diagnostic on this or the next line"},
	{"noalloc", "noalloc", OnFunc, "", "(function doc) function and its direct-call tree must not heap-allocate per -gcflags=-m"},
	{"alloc", "noalloc", OnLine, "<reason>", "waive an allocation on this or the next line; on a call line, vouches for the callee subtree"},
	{"aliased", "alias", OnField, "", "(struct slice field) reslicing/truncating in place is forbidden"},
	{"guardedby", "lockcheck", OnFieldOrLocal, "<mu>", "(struct field or var-block local) field may only be accessed holding the sibling mutex <mu>"},
	{"crosssend", "shardsafe", OnFunc, "", "(func doc) the 'when' parameter must derive from an epoch source"},
	{"lockok", "lockcheck", OnLine, "<reason>", "waive a lockcheck diagnostic on this or the next line"},
	{"shardok", "shardsafe", OnLine, "<reason>", "waive a shardsafe diagnostic on this or the next line"},
	{"norecover", "recoversafe", OnLine, "<reason>", "waive a recoversafe diagnostic on this or the next line"},
}

// directive returns the table row for verb, or nil for an unknown verb.
func directive(verb string) *Directive {
	for i := range Directives {
		if Directives[i].Verb == verb {
			return &Directives[i]
		}
	}
	return nil
}

// Waiver is one line-scoped directive (an OnLine row of Directives). Used
// is set when a diagnostic was actually suppressed, so stale waivers can be
// reported.
type Waiver struct {
	Verb   string
	File   string
	Line   int
	Reason string
	Used   bool
}

func (w *Waiver) covers(p token.Position) bool {
	return w.File == p.Filename && (w.Line == p.Line || w.Line == p.Line-1)
}

// FuncAnno is a //xui:noalloc annotation on a function declaration.
type FuncAnno struct {
	Pkg       *Package
	Name      string // rendered as (*T).Method or Func
	File      string
	Pos       token.Position
	BodyStart int // first body line, inclusive
	BodyEnd   int // last body line, inclusive
	// coldLines are lines spanned by panic(...) calls inside the body:
	// allocations there happen only on the way to a crash and are exempt.
	coldLines map[int]bool
}

// FieldAnno is a //xui:aliased annotation on a struct field.
type FieldAnno struct {
	Obj    types.Object // the field's *types.Var, shared module-wide
	Struct string
	Field  string
	Pos    token.Position
}

// GuardAnno is a //xui:guardedby <mu> annotation on a struct field (or a
// local variable in a parenthesized var block): the field may only be
// accessed while the named sibling mutex is held.
type GuardAnno struct {
	Obj   types.Object // the guarded field's or local's *types.Var
	Mu    string       // sibling mutex name
	Local bool
	Owner string // struct name, or function name for locals
	Field string
	Pos   token.Position
}

// CrossSendAnno is a //xui:crosssend annotation on a function: at every
// call site, the argument bound to the parameter named "when" must be
// derived from an epoch-boundary time source.
type CrossSendAnno struct {
	Obj     *types.Func
	Name    string
	WhenIdx int
	Pos     token.Position
}

// Annotations is the module-wide table of //xui: directives.
type Annotations struct {
	Waivers   []*Waiver
	Noalloc   []*FuncAnno
	Aliased   []*FieldAnno
	GuardedBy []*GuardAnno
	CrossSend []*CrossSendAnno
	Malformed []Diagnostic
}

// noallocAt returns the annotated function covering file:line, if any.
func (a *Annotations) noallocAt(file string, line int) *FuncAnno {
	for _, f := range a.Noalloc {
		if f.File == file && line >= f.BodyStart && line <= f.BodyEnd {
			return f
		}
	}
	return nil
}

// aliasedObj returns the annotation for a field object, if any.
func (a *Annotations) aliasedObj(obj types.Object) *FieldAnno {
	if obj == nil {
		return nil
	}
	for _, f := range a.Aliased {
		if f.Obj == obj {
			return f
		}
	}
	return nil
}

const directivePrefix = "xui:"

// splitDirective parses one comment into (verb, rest) when it is an
// //xui: directive, like ("nondet", "map feeds a map, order-free").
func splitDirective(c *ast.Comment) (verb, rest string, ok bool) {
	text := strings.TrimPrefix(c.Text, "//")
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	text = strings.TrimPrefix(text, directivePrefix)
	verb, rest, _ = strings.Cut(text, " ")
	return verb, strings.TrimSpace(rest), true
}

func collectAnnotations(pkgs []*Package) *Annotations {
	a := &Annotations{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			a.collectFile(p, f)
		}
	}
	return a
}

func (a *Annotations) malformed(analyzer string, pos token.Position, format string, args ...any) {
	a.Malformed = append(a.Malformed, Diagnostic{
		Analyzer: analyzer,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (a *Annotations) collectFile(p *Package, f *ast.File) {
	// Which comments are legitimately attached as noalloc/aliased carriers.
	attached := map[*ast.Comment]bool{}

	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			for _, c := range commentList(d.Doc) {
				verb, _, ok := splitDirective(c)
				if !ok {
					continue
				}
				switch verb {
				case "noalloc":
					attached[c] = true
					a.addNoalloc(p, d, c)
				case "crosssend":
					attached[c] = true
					a.addCrossSend(p, d, c)
				}
			}
			// Local guarded variables: //xui:guardedby on a ValueSpec inside
			// a parenthesized var block in the function body.
			if d.Body != nil {
				a.collectLocalGuards(p, d, attached)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var st *ast.StructType
				owner := ""
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					st, _ = sp.Type.(*ast.StructType)
					owner = sp.Name.Name
				case *ast.ValueSpec:
					// var x struct{ ... } — anonymous struct type on a
					// package-level variable (the runcache registry shape).
					st, _ = sp.Type.(*ast.StructType)
					if len(sp.Names) > 0 {
						owner = sp.Names[0].Name
					}
				}
				if st == nil || st.Fields == nil {
					continue
				}
				a.collectStructFields(p, owner, st, attached)
			}
		}
	}

	for _, cg := range f.Comments {
		for _, c := range cg.List {
			verb, rest, ok := splitDirective(c)
			if !ok {
				continue
			}
			pos := p.Fset.Position(c.Pos())
			d := directive(verb)
			switch {
			case d == nil:
				a.malformed("determinism", pos, "unknown annotation //xui:%s (known: %s)", verb, knownVerbs())
			case d.Place == OnLine && rest == "":
				a.malformed(d.Analyzer, pos, "//xui:%s needs a reason: //xui:%s <why this is safe>", verb, verb)
			case d.Place == OnLine:
				a.Waivers = append(a.Waivers, &Waiver{
					Verb: verb, File: pos.Filename, Line: pos.Line, Reason: rest,
				})
			case !attached[c]:
				a.malformed(d.Analyzer, pos, "misplaced //xui:%s: %s", verb, d.Place.rule())
			}
		}
	}
}

func knownVerbs() string {
	verbs := make([]string, len(Directives))
	for i, d := range Directives {
		verbs[i] = d.Verb
	}
	return strings.Join(verbs, ", ")
}

func commentList(cg *ast.CommentGroup) []*ast.Comment {
	if cg == nil {
		return nil
	}
	return cg.List
}

func (a *Annotations) addNoalloc(p *Package, d *ast.FuncDecl, c *ast.Comment) {
	pos := p.Fset.Position(c.Pos())
	if d.Body == nil {
		a.malformed("noalloc", pos, "//xui:noalloc on a bodyless declaration")
		return
	}
	fa := &FuncAnno{
		Pkg:       p,
		Name:      funcDisplayName(d),
		File:      pos.Filename,
		Pos:       p.Fset.Position(d.Pos()),
		BodyStart: p.Fset.Position(d.Body.Lbrace).Line,
		BodyEnd:   p.Fset.Position(d.Body.Rbrace).Line,
		coldLines: map[int]bool{},
	}
	// Lines spanned by panic(...) calls are crash paths: allocating the
	// panic message there is deliberate and exempt.
	ast.Inspect(d.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			from := p.Fset.Position(call.Pos()).Line
			to := p.Fset.Position(call.End()).Line
			for l := from; l <= to; l++ {
				fa.coldLines[l] = true
			}
		}
		return true
	})
	a.Noalloc = append(a.Noalloc, fa)
}

// collectStructFields dispatches the field-level annotations (aliased,
// guardedby) over one struct type's fields. owner is the struct
// or variable name, for display.
func (a *Annotations) collectStructFields(p *Package, owner string, st *ast.StructType, attached map[*ast.Comment]bool) {
	for _, fld := range st.Fields.List {
		for _, c := range append(commentList(fld.Doc), commentList(fld.Comment)...) {
			verb, rest, ok := splitDirective(c)
			if !ok {
				continue
			}
			switch verb {
			case "aliased":
				attached[c] = true
				a.addAliased(p, owner, fld, c)
			case "guardedby":
				attached[c] = true
				a.addGuardedBy(p, owner, st, fld, rest, c)
			}
		}
	}
}

func (a *Annotations) addAliased(p *Package, owner string, fld *ast.Field, c *ast.Comment) {
	pos := p.Fset.Position(c.Pos())
	if len(fld.Names) == 0 {
		a.malformed("alias", pos, "//xui:aliased on an embedded field; name the field")
		return
	}
	for _, name := range fld.Names {
		obj := p.Info.Defs[name]
		if obj == nil {
			a.malformed("alias", pos, "//xui:aliased field %s.%s did not resolve", owner, name.Name)
			continue
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			a.malformed("alias", pos, "//xui:aliased field %s.%s is not a slice", owner, name.Name)
			continue
		}
		a.Aliased = append(a.Aliased, &FieldAnno{
			Obj:    obj,
			Struct: owner,
			Field:  name.Name,
			Pos:    pos,
		})
	}
}

// addGuardedBy records a //xui:guardedby <mu> field annotation, validating
// that mu names a sibling field of mutex type.
func (a *Annotations) addGuardedBy(p *Package, owner string, st *ast.StructType, fld *ast.Field, mu string, c *ast.Comment) {
	pos := p.Fset.Position(c.Pos())
	if mu == "" || strings.ContainsAny(mu, " \t,") {
		a.malformed("lockcheck", pos, "//xui:guardedby needs exactly one mutex name: //xui:guardedby mu")
		return
	}
	var sibling *ast.Field
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if n.Name == mu {
				sibling = f
			}
		}
	}
	if sibling == nil {
		a.malformed("lockcheck", pos, "//xui:guardedby %s: %s has no field named %s", mu, owner, mu)
		return
	}
	if len(sibling.Names) > 0 {
		if obj := p.Info.Defs[sibling.Names[0]]; obj != nil && !isMutexType(obj.Type()) {
			a.malformed("lockcheck", pos, "//xui:guardedby %s: field %s.%s is not a sync.Mutex or sync.RWMutex", mu, owner, mu)
			return
		}
	}
	if len(fld.Names) == 0 {
		a.malformed("lockcheck", pos, "//xui:guardedby on an embedded field; name the field")
		return
	}
	for _, name := range fld.Names {
		obj := p.Info.Defs[name]
		if obj == nil {
			a.malformed("lockcheck", pos, "//xui:guardedby field %s.%s did not resolve", owner, name.Name)
			continue
		}
		a.GuardedBy = append(a.GuardedBy, &GuardAnno{
			Obj: obj, Mu: mu, Owner: owner, Field: name.Name, Pos: pos,
		})
	}
}

func isMutexType(t types.Type) bool {
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// addCrossSend records a //xui:crosssend function annotation. The function
// must have a parameter named "when" — that is the argument whose value
// shardsafe requires to be epoch-derived at every call site.
func (a *Annotations) addCrossSend(p *Package, d *ast.FuncDecl, c *ast.Comment) {
	pos := p.Fset.Position(c.Pos())
	obj, _ := p.Info.Defs[d.Name].(*types.Func)
	if obj == nil {
		a.malformed("shardsafe", pos, "//xui:crosssend function %s did not resolve", d.Name.Name)
		return
	}
	sig := obj.Type().(*types.Signature)
	whenIdx := -1
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == "when" {
			whenIdx = i
			break
		}
	}
	if whenIdx < 0 {
		a.malformed("shardsafe", pos, "//xui:crosssend function %s has no parameter named \"when\"", funcDisplayName(d))
		return
	}
	a.CrossSend = append(a.CrossSend, &CrossSendAnno{
		Obj: obj, Name: funcDisplayName(d), WhenIdx: whenIdx, Pos: pos,
	})
}

// collectLocalGuards finds //xui:guardedby annotations on local variables:
// a ValueSpec inside a parenthesized var block in a function body, carrying
// the directive as its doc or trailing comment.
func (a *Annotations) collectLocalGuards(p *Package, d *ast.FuncDecl, attached map[*ast.Comment]bool) {
	ast.Inspect(d.Body, func(node ast.Node) bool {
		ds, ok := node.(*ast.DeclStmt)
		if !ok {
			return true
		}
		gd, ok := ds.Decl.(*ast.GenDecl)
		if !ok {
			return true
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, c := range append(commentList(vs.Doc), commentList(vs.Comment)...) {
				verb, rest, ok := splitDirective(c)
				if !ok || verb != "guardedby" {
					continue
				}
				attached[c] = true
				pos := p.Fset.Position(c.Pos())
				if rest == "" || strings.ContainsAny(rest, " \t,") {
					a.malformed("lockcheck", pos, "//xui:guardedby needs exactly one mutex name: //xui:guardedby mu")
					continue
				}
				if len(vs.Names) != 1 {
					a.malformed("lockcheck", pos, "//xui:guardedby on a local must annotate exactly one variable")
					continue
				}
				obj := p.Info.Defs[vs.Names[0]]
				if obj == nil {
					a.malformed("lockcheck", pos, "//xui:guardedby local %s did not resolve", vs.Names[0].Name)
					continue
				}
				a.GuardedBy = append(a.GuardedBy, &GuardAnno{
					Obj: obj, Mu: rest, Local: true,
					Owner: funcDisplayName(d), Field: vs.Names[0].Name, Pos: pos,
				})
			}
		}
		return true
	})
}

func funcDisplayName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	var b strings.Builder
	if star, ok := t.(*ast.StarExpr); ok {
		b.WriteString("(*")
		writeTypeName(&b, star.X)
		b.WriteString(")")
	} else {
		writeTypeName(&b, t)
	}
	b.WriteString(".")
	b.WriteString(d.Name.Name)
	return b.String()
}

func writeTypeName(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver T[P]
		writeTypeName(b, t.X)
	case *ast.IndexListExpr:
		writeTypeName(b, t.X)
	default:
		b.WriteString("?")
	}
}
