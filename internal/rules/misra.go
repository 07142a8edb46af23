package rules

import (
	"fmt"
	"strings"

	"repro/internal/ccast"
)

// MISRAExtraRule adds further decidable MISRA C:2012 checks beyond the
// core LanguageSubsetRule: switch hygiene (R16.3/R16.4), assignments in
// controlling expressions (R13.4), octal literals (R7.1), and unused
// parameters (advisory R2.7). The paper's point — that AD code was never
// written against any such subset — is evidenced by the density of these
// findings across the corpus.
type MISRAExtraRule struct{}

// ID implements Rule.
func (*MISRAExtraRule) ID() string { return "misra-extra" }

// Check implements Rule.
func (r *MISRAExtraRule) Check(ctx *Context) []Finding {
	var out []Finding
	for _, fi := range ctx.Funcs() {
		out = append(out, r.checkSwitches(fi)...)
		out = append(out, r.checkConditions(fi)...)
		out = append(out, r.checkOctals(fi)...)
		out = append(out, r.checkUnusedParams(fi)...)
	}
	return out
}

// Fuse implements Rule. Switch hygiene, condition assignments, and
// octal literals dispatch off single node events; unused-parameter
// tracking accumulates identifier uses across the function walk.
func (r *MISRAExtraRule) Fuse(rg *Registrar) {
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		r.switchFindings(fi, n.(*ccast.Switch), em)
	}, KSwitch)
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		switch s := n.(type) {
		case *ccast.If:
			r.condFindings(fi, s.Cond, "if", em)
		case *ccast.While:
			r.condFindings(fi, s.Cond, "while", em)
		case *ccast.DoWhile:
			r.condFindings(fi, s.Cond, "do-while", em)
		case *ccast.For:
			r.condFindings(fi, s.Cond, "for", em)
		}
	}, KIf, KWhile, KDoWhile, KFor)
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		r.octalFinding(fi, n.(*ccast.IntLit), em)
	}, KIntLit)

	// Unused parameters (R2.7): keep the not-yet-seen parameter names in
	// a small slice and strike them off as identifier events arrive —
	// parameter lists are short, so a linear scan beats a per-identifier
	// map insert. State is per-worker, reset per function.
	var pending []string
	rg.OnFuncEnter(func(fi *FuncInfo, em *Emitter) {
		pending = pending[:0]
		for _, p := range fi.Decl.Params {
			if p.Name != "" {
				pending = append(pending, p.Name)
			}
		}
	})
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		if len(pending) == 0 {
			return
		}
		name := n.(*ccast.Ident).Name
		for i, pn := range pending {
			if pn == name {
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				break
			}
		}
	}, KIdent)
	rg.OnFuncExit(func(fi *FuncInfo, em *Emitter) {
		if len(pending) == 0 {
			return
		}
		r.unusedParamFindings(fi, func(name string) bool {
			for _, pn := range pending {
				if pn == name {
					return false
				}
			}
			return true
		}, em)
	})
}

// checkSwitches enforces R16.4 (default label present) and R16.3 (every
// non-empty case group ends in an unconditional break or return).
func (r *MISRAExtraRule) checkSwitches(fi *FuncInfo) []Finding {
	em := &Emitter{}
	ccast.WalkStmts(fi.Decl.Body, func(s ccast.Stmt) bool {
		if sw, ok := s.(*ccast.Switch); ok {
			r.switchFindings(fi, sw, em)
		}
		return true
	})
	return em.out
}

// switchFindings applies the R16.3/R16.4 checks to one switch statement.
func (r *MISRAExtraRule) switchFindings(fi *FuncInfo, sw *ccast.Switch, em *Emitter) {
	hasDefault := false
	for i, c := range sw.Cases {
		if len(c.Values) == 0 {
			hasDefault = true
		}
		if len(c.Body) == 0 {
			continue // stacked labels merge upward; nothing to flag
		}
		if i == len(sw.Cases)-1 {
			continue // last group falls out of the switch legally
		}
		if !endsInJump(c.Body) {
			em.Emit(finding(r.ID(), Warning, fi, c.Span().Start.Line,
				"switch case falls through to the next label (MISRA C:2012 R16.3)",
				refLangSubset))
		}
	}
	if !hasDefault {
		em.Emit(finding(r.ID(), Warning, fi, sw.Span().Start.Line,
			"switch has no default label (MISRA C:2012 R16.4)", refLangSubset))
	}
}

// endsInJump reports whether the statement list cannot fall through.
func endsInJump(body []ccast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	switch last := body[len(body)-1].(type) {
	case *ccast.Break, *ccast.Continue, *ccast.Return, *ccast.Goto:
		return true
	case *ccast.Block:
		return endsInJump(last.Stmts)
	default:
		return false
	}
}

// checkConditions flags assignments used as controlling expressions
// (MISRA C:2012 R13.4: the result of an assignment should not be used).
func (r *MISRAExtraRule) checkConditions(fi *FuncInfo) []Finding {
	em := &Emitter{}
	ccast.WalkStmts(fi.Decl.Body, func(s ccast.Stmt) bool {
		switch s := s.(type) {
		case *ccast.If:
			r.condFindings(fi, s.Cond, "if", em)
		case *ccast.While:
			r.condFindings(fi, s.Cond, "while", em)
		case *ccast.DoWhile:
			r.condFindings(fi, s.Cond, "do-while", em)
		case *ccast.For:
			r.condFindings(fi, s.Cond, "for", em)
		}
		return true
	})
	return em.out
}

// condFindings flags assignments inside one controlling expression.
func (r *MISRAExtraRule) condFindings(fi *FuncInfo, cond ccast.Expr, where string, em *Emitter) {
	if cond == nil {
		return
	}
	ccast.WalkExprs(cond, func(e ccast.Expr) bool {
		if a, ok := e.(*ccast.Assign); ok {
			em.Emit(finding(r.ID(), Warning, fi, a.Span().Start.Line,
				fmt.Sprintf("assignment inside %s condition (MISRA C:2012 R13.4)", where),
				refLangSubset))
		}
		return true
	})
}

// checkOctals flags octal integer constants (MISRA C:2012 R7.1).
func (r *MISRAExtraRule) checkOctals(fi *FuncInfo) []Finding {
	em := &Emitter{}
	ccast.WalkExprs(fi.Decl.Body, func(e ccast.Expr) bool {
		if lit, ok := e.(*ccast.IntLit); ok {
			r.octalFinding(fi, lit, em)
		}
		return true
	})
	return em.out
}

// octalFinding flags one integer literal when spelled in octal.
func (r *MISRAExtraRule) octalFinding(fi *FuncInfo, lit *ccast.IntLit, em *Emitter) {
	t := lit.Text
	if len(t) > 1 && t[0] == '0' && t[1] >= '0' && t[1] <= '7' &&
		!strings.HasPrefix(t, "0x") && !strings.HasPrefix(t, "0X") {
		em.Emit(finding(r.ID(), Warning, fi, lit.Span().Start.Line,
			fmt.Sprintf("octal constant %s (MISRA C:2012 R7.1)", t), refLangSubset))
	}
}

// checkUnusedParams flags named parameters never referenced in the body
// (MISRA C:2012 R2.7, advisory).
func (r *MISRAExtraRule) checkUnusedParams(fi *FuncInfo) []Finding {
	if fi.Decl.Body == nil || len(fi.Decl.Params) == 0 {
		return nil
	}
	used := make(map[string]bool)
	ccast.WalkExprs(fi.Decl.Body, func(e ccast.Expr) bool {
		if id, ok := e.(*ccast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	em := &Emitter{}
	r.unusedParamFindings(fi, func(name string) bool { return used[name] }, em)
	return em.out
}

// unusedParamFindings reports parameters the predicate marks unused.
func (r *MISRAExtraRule) unusedParamFindings(fi *FuncInfo, isUsed func(string) bool, em *Emitter) {
	for _, p := range fi.Decl.Params {
		if p.Name == "" || isUsed(p.Name) {
			continue
		}
		em.Emit(finding(r.ID(), Info, fi, p.Span().Start.Line,
			fmt.Sprintf("parameter %q is never used (MISRA C:2012 R2.7)", p.Name),
			refLangSubset))
	}
}
