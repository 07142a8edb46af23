package rules

import (
	"fmt"

	"repro/internal/ccast"
	"repro/internal/iso26262"
)

// refStrongTyping is Table 1 item 3; refNoImplicitConv is Table 8 item 7.
var (
	refStrongTyping   = iso26262.Ref{Table: iso26262.TableCoding, Item: 3}
	refNoImplicitConv = iso26262.Ref{Table: iso26262.TableUnit, Item: 7}
)

// CastRule reports every explicit cast: the paper counts >1,400 explicit
// castings in Apollo as evidence against "enforcement of strong typing".
type CastRule struct{}

// ID implements Rule.
func (*CastRule) ID() string { return "cast" }

// Describe implements Rule.
func (*CastRule) Describe() string {
	return "explicit type casts weaken strong typing (ISO26262-6 T1.3)"
}

// Check implements Rule.
func (r *CastRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, fi := range ctx.Funcs {
		ccast.WalkExprs(fi.Decl.Body, func(e ccast.Expr) bool {
			if c, ok := e.(*ccast.Cast); ok {
				r.castFinding(fi, c, em)
			}
			return true
		})
	}
	return em.out
}

// castFinding reports one explicit cast.
func (r *CastRule) castFinding(fi *FuncInfo, c *ccast.Cast, em *Emitter) {
	em.Emit(finding(r.ID(), Warning, fi, c.Span().Start.Line,
		fmt.Sprintf("explicit %s cast to %s", c.Style, typeSpelling(c.To)),
		refStrongTyping))
}

// Fuse implements Rule.
func (r *CastRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		r.castFinding(fi, n.(*ccast.Cast), em)
	}, KCast)
}

// ImplicitConversionRule flags assignments and initializations whose
// right-hand side has a different arithmetic category than the declared
// left-hand type (int <- float and float <- int), using local declaration
// type information only. Cross-file inference is out of scope and the
// corresponding uncertainty is documented in DESIGN.md.
type ImplicitConversionRule struct{}

// ID implements Rule.
func (*ImplicitConversionRule) ID() string { return "implicit-conv" }

// Describe implements Rule.
func (*ImplicitConversionRule) Describe() string {
	return "implicit arithmetic conversions (ISO26262-6 T8.7)"
}

// Check implements Rule.
func (r *ImplicitConversionRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	localTypes := make(map[string]string)
	for _, fi := range ctx.Funcs {
		r.seedParams(fi, localTypes)
		ccast.Walk(fi.Decl.Body, func(n ccast.Node) bool {
			switch n := n.(type) {
			case *ccast.DeclStmt:
				r.declFindings(fi, n, localTypes, em)
			case *ccast.Assign:
				r.assignFindings(fi, n, localTypes, em)
			}
			return true
		})
	}
	return em.out
}

// seedParams resets the local type table to the function's scalar params.
func (r *ImplicitConversionRule) seedParams(fi *FuncInfo, localTypes map[string]string) {
	clear(localTypes)
	for _, p := range fi.Decl.Params {
		if p.Name != "" && p.Type.PtrDepth == 0 {
			localTypes[p.Name] = p.Type.Name
		}
	}
}

// declFindings records declared types and checks initializers.
func (r *ImplicitConversionRule) declFindings(fi *FuncInfo, n *ccast.DeclStmt, localTypes map[string]string, em *Emitter) {
	for _, d := range n.Decl.Names {
		if d.Type.PtrDepth == 0 {
			localTypes[d.Name] = d.Type.Name
		}
		if d.Init != nil {
			if cat := exprCategory(d.Init, localTypes); cat != "" {
				if mismatch(d.Type.Name, cat) {
					em.Emit(finding(r.ID(), Warning, fi, d.Span().Start.Line,
						fmt.Sprintf("implicit conversion: %s initialized from %s expression", d.Type.Name, cat),
						refNoImplicitConv, refStrongTyping))
				}
			}
		}
	}
}

// assignFindings checks one simple assignment for a category mismatch.
func (r *ImplicitConversionRule) assignFindings(fi *FuncInfo, n *ccast.Assign, localTypes map[string]string, em *Emitter) {
	if n.Op != "=" {
		return
	}
	lt := lvalueType(n.L, localTypes)
	if lt == "" {
		return
	}
	if cat := exprCategory(n.R, localTypes); cat != "" && mismatch(lt, cat) {
		em.Emit(finding(r.ID(), Warning, fi, n.Span().Start.Line,
			fmt.Sprintf("implicit conversion: %s assigned from %s expression", lt, cat),
			refNoImplicitConv, refStrongTyping))
	}
}

// Fuse implements Rule. The local type table lives in the worker's
// closure and is reseeded at every function entry; DeclStmt and Assign
// events arrive in the same DFS order the sequential walk used, so the
// table evolves identically.
func (r *ImplicitConversionRule) Fuse(rg *Registrar, ctx *Context) {
	localTypes := make(map[string]string)
	rg.OnFuncEnter(func(fi *FuncInfo, em *Emitter) {
		r.seedParams(fi, localTypes)
	})
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		switch n := n.(type) {
		case *ccast.DeclStmt:
			r.declFindings(fi, n, localTypes, em)
		case *ccast.Assign:
			r.assignFindings(fi, n, localTypes, em)
		}
	}, KDeclStmt, KAssign)
}

func typeSpelling(t *ccast.Type) string {
	if t == nil {
		return "?"
	}
	s := t.Name
	for i := 0; i < t.PtrDepth; i++ {
		s += "*"
	}
	return s
}

func isIntName(name string) bool {
	switch name {
	case "int", "long", "short", "char", "unsigned", "signed",
		"unsigned int", "long long", "unsigned long", "size_t",
		"int8_t", "int16_t", "int32_t", "int64_t",
		"uint8_t", "uint16_t", "uint32_t", "uint64_t", "bool", "_Bool":
		return true
	}
	return false
}

func isFloatName(name string) bool {
	switch name {
	case "float", "double", "long double":
		return true
	}
	return false
}

// mismatch reports an int<->float category difference.
func mismatch(declared, category string) bool {
	if isIntName(declared) && category == "float" {
		return true
	}
	if isFloatName(declared) && category == "int" {
		return true
	}
	return false
}

// exprCategory infers "int", "float", or "" (unknown) for an expression.
func exprCategory(e ccast.Expr, localTypes map[string]string) string {
	switch e := e.(type) {
	case *ccast.IntLit:
		return "int"
	case *ccast.FloatLit:
		return "float"
	case *ccast.CharLit:
		return "int"
	case *ccast.BoolLit:
		return "int"
	case *ccast.Ident:
		if t, ok := localTypes[e.Name]; ok {
			if isIntName(t) {
				return "int"
			}
			if isFloatName(t) {
				return "float"
			}
		}
		return ""
	case *ccast.Paren:
		return exprCategory(e.X, localTypes)
	case *ccast.Unary:
		if e.Op == "-" || e.Op == "+" || e.Op == "~" {
			return exprCategory(e.X, localTypes)
		}
		return ""
	case *ccast.Cast:
		// An explicit cast fixes the category: no implicit conversion.
		if isIntName(e.To.Name) && e.To.PtrDepth == 0 {
			return "int"
		}
		if isFloatName(e.To.Name) {
			return "float"
		}
		return ""
	case *ccast.Binary:
		switch e.Op {
		case "==", "!=", "<", ">", "<=", ">=", "&&", "||":
			return "int"
		}
		l := exprCategory(e.L, localTypes)
		rr := exprCategory(e.R, localTypes)
		if l == "float" || rr == "float" {
			return "float"
		}
		if l == "int" && rr == "int" {
			return "int"
		}
		return ""
	default:
		return ""
	}
}

// lvalueType returns the declared type name of a simple lvalue.
func lvalueType(e ccast.Expr, localTypes map[string]string) string {
	if id, ok := e.(*ccast.Ident); ok {
		return localTypes[id.Name]
	}
	return ""
}
