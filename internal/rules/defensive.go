package rules

import (
	"fmt"

	"repro/internal/ccast"
	"repro/internal/iso26262"
)

var refDefensive = iso26262.Ref{Table: iso26262.TableCoding, Item: 4}

// DefensiveRule checks the two defensive-implementation properties the
// paper calls out: (a) functions must validate pointer parameters before
// dereferencing them, and (b) callers must not discard the return value of
// non-void functions.
type DefensiveRule struct{}

// ID implements Rule.
func (*DefensiveRule) ID() string { return "defensive" }

// Check implements Rule.
func (r *DefensiveRule) Check(ctx *Context) []Finding {
	em := &Emitter{ctx: ctx}
	for _, fi := range ctx.Funcs() {
		r.checkParamValidation(fi, em)
		r.checkIgnoredReturns(fi, em)
	}
	return em.out
}

// Fuse implements Rule. Pointer-parameter tracking keeps the
// checked/used maps in the worker closure, fed by If/Index/Unary/Member
// events from the shared walk; ignored returns dispatch off ExprStmt
// events directly.
func (r *DefensiveRule) Fuse(rg *Registrar) {
	var ptrParams []string
	checked := make(map[string]bool)
	used := make(map[string]int)
	rg.OnFuncEnter(func(fi *FuncInfo, em *Emitter) {
		ptrParams = ptrParams[:0]
		for _, p := range fi.Decl.Params {
			if p.Name != "" && p.Type.IsPointer() {
				ptrParams = append(ptrParams, p.Name)
			}
		}
		if len(ptrParams) > 0 {
			clear(checked)
			clear(used)
		}
	})
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		if len(ptrParams) == 0 {
			if es, ok := n.(*ccast.ExprStmt); ok {
				ignoredReturn(fi, es, em)
			}
			return
		}
		switch n := n.(type) {
		case *ccast.If:
			for _, name := range nullCheckedNames(n.Cond) {
				checked[name] = true
			}
		case *ccast.Index:
			if id, ok := n.X.(*ccast.Ident); ok {
				noteUse(used, id)
			}
		case *ccast.Unary:
			if n.Op == "*" {
				if id, ok := n.X.(*ccast.Ident); ok {
					noteUse(used, id)
				}
			}
		case *ccast.Member:
			if n.Arrow {
				if id, ok := n.X.(*ccast.Ident); ok {
					noteUse(used, id)
				}
			}
		case *ccast.ExprStmt:
			ignoredReturn(fi, n, em)
		}
	}, KIf, KIndex, KUnary, KMember, KExprStmt)
	rg.OnFuncExit(func(fi *FuncInfo, em *Emitter) {
		if len(ptrParams) > 0 {
			r.uncheckedDerefFindings(fi, ptrParams, checked, used, em)
		}
	})
}

// uncheckedDerefFindings reports pointer parameters dereferenced without a
// preceding null check.
func (r *DefensiveRule) uncheckedDerefFindings(fi *FuncInfo, ptrParams []string, checked map[string]bool, used map[string]int, em *Emitter) {
	for _, name := range ptrParams {
		line, isUsed := used[name]
		if isUsed && !checked[name] {
			em.Emit(finding(r.ID(), Violation, fi, line,
				fmt.Sprintf("pointer parameter %q dereferenced without null check", name),
				refDefensive))
		}
	}
}

// ignoredReturn flags one expression statement calling a function,
// under the condition that the callee is a defined non-void function:
// then the statement discards its result.
func ignoredReturn(fi *FuncInfo, es *ccast.ExprStmt, em *Emitter) {
	if call, ok := es.X.(*ccast.Call); ok {
		em.EmitIf(CondName{NonVoidCallee, CalleeName(call)}, fi, es.Span().Start.Line)
	}
}

// checkParamValidation flags pointer parameters used without a preceding
// null check anywhere in the function.
func (r *DefensiveRule) checkParamValidation(fi *FuncInfo, em *Emitter) {
	var ptrParams []string
	for _, p := range fi.Decl.Params {
		if p.Name != "" && p.Type.IsPointer() {
			ptrParams = append(ptrParams, p.Name)
		}
	}
	if len(ptrParams) == 0 {
		return
	}
	checked := make(map[string]bool)
	used := make(map[string]int) // name → first use line
	ccast.Walk(fi.Decl.Body, func(n ccast.Node) bool {
		switch n := n.(type) {
		case *ccast.If:
			for _, name := range nullCheckedNames(n.Cond) {
				checked[name] = true
			}
		case *ccast.Index:
			if id, ok := n.X.(*ccast.Ident); ok {
				noteUse(used, id)
			}
		case *ccast.Unary:
			if n.Op == "*" {
				if id, ok := n.X.(*ccast.Ident); ok {
					noteUse(used, id)
				}
			}
		case *ccast.Member:
			if n.Arrow {
				if id, ok := n.X.(*ccast.Ident); ok {
					noteUse(used, id)
				}
			}
		}
		return true
	})
	r.uncheckedDerefFindings(fi, ptrParams, checked, used, em)
}

func noteUse(used map[string]int, id *ccast.Ident) {
	if _, ok := used[id.Name]; !ok {
		used[id.Name] = id.Span().Start.Line
	}
}

// nullCheckedNames extracts names null-compared in a condition:
// p == NULL, p != nullptr, !p, p (truthiness), including across && / ||.
func nullCheckedNames(e ccast.Expr) []string {
	var out []string
	switch e := e.(type) {
	case *ccast.Paren:
		return nullCheckedNames(e.X)
	case *ccast.Unary:
		if e.Op == "!" {
			if id, ok := e.X.(*ccast.Ident); ok {
				out = append(out, id.Name)
			}
		}
	case *ccast.Ident:
		out = append(out, e.Name)
	case *ccast.Binary:
		switch e.Op {
		case "&&", "||":
			out = append(out, nullCheckedNames(e.L)...)
			out = append(out, nullCheckedNames(e.R)...)
		case "==", "!=":
			if isNullish(e.R) {
				if id, ok := e.L.(*ccast.Ident); ok {
					out = append(out, id.Name)
				}
			}
			if isNullish(e.L) {
				if id, ok := e.R.(*ccast.Ident); ok {
					out = append(out, id.Name)
				}
			}
		}
	}
	return out
}

func isNullish(e ccast.Expr) bool {
	switch e := e.(type) {
	case *ccast.BoolLit:
		return e.IsNull
	case *ccast.IntLit:
		return e.Value == 0
	case *ccast.Ident:
		return e.Name == "NULL"
	case *ccast.Cast:
		return isNullish(e.X)
	default:
		return false
	}
}

// checkIgnoredReturns flags expression statements that call a non-void
// defined function and discard its result.
func (r *DefensiveRule) checkIgnoredReturns(fi *FuncInfo, em *Emitter) {
	ccast.WalkStmts(fi.Decl.Body, func(s ccast.Stmt) bool {
		if es, ok := s.(*ccast.ExprStmt); ok {
			ignoredReturn(fi, es, em)
		}
		return true
	})
}
