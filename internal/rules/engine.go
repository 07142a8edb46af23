package rules

import (
	"slices"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/par"
)

// This file implements the fused single-pass walk of one file, which
// the sharded engine's caches are filled from. The seed engine gave
// every rule its own full-corpus traversal (20+ ccast walks over every
// function body); here each function body is walked exactly once and
// node events are dispatched to the rules that registered interest.
// Files are walked in parallel (core.Assessor's per-file step, or Run's
// worker pool) and merged deterministically, so the engine's output is
// byte-identical to the sequential reference engine (RunSequential)
// under the total order of sortFindings.

// NodeKind enumerates the AST node categories rules can subscribe to.
type NodeKind int

// Node kinds the dispatcher distinguishes; kinds no fused rule needs are
// not dispatched at all.
const (
	KIf NodeKind = iota
	KWhile
	KDoWhile
	KFor
	KSwitch
	KCall
	KKernelLaunch
	KCast
	KNew
	KDelete
	KComma
	KIntLit
	KIdent
	KDeclStmt
	KExprStmt
	KAssign
	KIndex
	KUnary
	KMember
	KGoto
	numNodeKinds
)

// kindOf classifies a node, returning -1 for kinds with no subscribers.
func kindOf(n ccast.Node) NodeKind {
	switch n.(type) {
	case *ccast.Ident:
		return KIdent
	case *ccast.Call:
		return KCall
	case *ccast.Member:
		return KMember
	case *ccast.Unary:
		return KUnary
	case *ccast.Index:
		return KIndex
	case *ccast.IntLit:
		return KIntLit
	case *ccast.Assign:
		return KAssign
	case *ccast.ExprStmt:
		return KExprStmt
	case *ccast.DeclStmt:
		return KDeclStmt
	case *ccast.If:
		return KIf
	case *ccast.While:
		return KWhile
	case *ccast.DoWhile:
		return KDoWhile
	case *ccast.For:
		return KFor
	case *ccast.Switch:
		return KSwitch
	case *ccast.Cast:
		return KCast
	case *ccast.NewExpr:
		return KNew
	case *ccast.DeleteExpr:
		return KDelete
	case *ccast.Comma:
		return KComma
	case *ccast.KernelLaunch:
		return KKernelLaunch
	case *ccast.Goto:
		return KGoto
	default:
		return -1
	}
}

// Emitter collects findings during a pass. Rules call Emit and EmitIf;
// the engine owns the buffer and drains it per file so parallel workers
// never share finding slices.
type Emitter struct {
	out []Finding
	// ctx, set in the reference pass (Rule.Check), evaluates each
	// condition at once. The engine leaves it nil and collects the
	// conditions in conds, fn being the index of the function its walk
	// is in.
	ctx   *Context
	conds []condAt
	fn    int
}

// Emit appends one finding.
func (em *Emitter) Emit(f Finding) { em.out = append(em.out, f) }

// EmitIf emits the finding cn renders at line inside fi exactly while
// cn's predicate holds: at once in the reference pass, and in the engine
// for as long as the predicate holds, which it tracks without walking
// the file again.
func (em *Emitter) EmitIf(cn CondName, fi *FuncInfo, line int) {
	if em.ctx == nil {
		em.conds = append(em.conds, condAt{cn, em.fn, line})
	} else if cn.holds(em.ctx) {
		em.Emit(cn.finding(fi, line))
	}
}

// Handler signatures for each event class.
type (
	// NodeFn handles one AST node inside the current function body.
	NodeFn func(fi *FuncInfo, n ccast.Node, em *Emitter)
	// FuncFn fires at function scope (enter, exit, or whole-function).
	FuncFn func(fi *FuncInfo, em *Emitter)
	// UnitFn fires once per translation unit.
	UnitFn func(tu *ccast.TranslationUnit, em *Emitter)
	// DeclFn handles one declaration-level node (outside function bodies).
	DeclFn func(tu *ccast.TranslationUnit, n ccast.Node, em *Emitter)
)

// Registrar collects one engine program: every fused rule's subscriptions
// for one worker. Rule closures may keep per-function state; a program is
// never shared between goroutines.
//
// Per-file handlers (OnNode, OnFunc*, OnUnit, OnDecl) see only their own
// file: Fuse gets no Context, so a handler cannot read a cross-file fact.
// A finding that depends on one is emitted under a condition instead
// (Emitter.EmitIf), which the engine evaluates and keeps current.
type Registrar struct {
	nodes     [numNodeKinds][]NodeFn
	funcEnter []FuncFn
	funcExit  []FuncFn
	funcWhole []FuncFn
	units     []UnitFn
	decls     []DeclFn
	anyNodes  bool
}

// OnNode subscribes a handler to the given node kinds within function
// bodies.
func (rg *Registrar) OnNode(h NodeFn, kinds ...NodeKind) {
	for _, k := range kinds {
		rg.nodes[k] = append(rg.nodes[k], h)
	}
	rg.anyNodes = rg.anyNodes || len(kinds) > 0
}

// OnFuncEnter subscribes a handler fired before a function's body walk.
func (rg *Registrar) OnFuncEnter(h FuncFn) { rg.funcEnter = append(rg.funcEnter, h) }

// OnFuncExit subscribes a handler fired after a function's body walk.
func (rg *Registrar) OnFuncExit(h FuncFn) { rg.funcExit = append(rg.funcExit, h) }

// OnFunc subscribes a whole-function handler for rules whose analysis
// needs its own structured traversal (scoped shadowing, init tracking).
func (rg *Registrar) OnFunc(h FuncFn) { rg.funcWhole = append(rg.funcWhole, h) }

// OnUnit subscribes a per-translation-unit handler (text-level checks,
// global-variable scans).
func (rg *Registrar) OnUnit(h UnitFn) { rg.units = append(rg.units, h) }

// OnDecl subscribes a handler for declaration-level nodes: top-level and
// namespace-scope declarations plus record methods, never descending into
// function bodies.
func (rg *Registrar) OnDecl(h DeclFn) { rg.decls = append(rg.decls, h) }

// newProgram builds a fresh program over the rules.
func newProgram(rs []Rule) *Registrar {
	rg := &Registrar{}
	for _, r := range rs {
		r.Fuse(rg)
	}
	return rg
}

// walkDeclNodes visits declaration-level nodes in source order: top-level
// declarations, namespace members (recursively), and record methods.
func walkDeclNodes(tu *ccast.TranslationUnit, visit func(ccast.Node)) {
	var rec func(ds []ccast.Decl)
	rec = func(ds []ccast.Decl) {
		for _, d := range ds {
			visit(d)
			switch d := d.(type) {
			case *ccast.NamespaceDecl:
				rec(d.Decls)
			case *ccast.RecordDecl:
				for _, m := range d.Methods {
					visit(m)
				}
			}
		}
	}
	rec(tu.Decls)
}

// runUnit executes the program over one translation unit: unit hooks,
// decl-level dispatch, then one fused walk per function body. funcs are
// the unit's records in source order.
func (rg *Registrar) runUnit(tu *ccast.TranslationUnit, funcs []*FuncInfo, em *Emitter) {
	for _, h := range rg.units {
		h(tu, em)
	}
	if len(rg.decls) > 0 {
		walkDeclNodes(tu, func(n ccast.Node) {
			for _, h := range rg.decls {
				h(tu, n, em)
			}
		})
	}
	for i, fi := range funcs {
		em.fn = i
		for _, h := range rg.funcEnter {
			h(fi, em)
		}
		if rg.anyNodes {
			ccast.Walk(fi.Decl.Body, func(n ccast.Node) bool {
				if k := kindOf(n); k >= 0 {
					for _, h := range rg.nodes[k] {
						h(fi, n, em)
					}
				}
				return true
			})
		}
		for _, h := range rg.funcWhole {
			h(fi, em)
		}
		for _, h := range rg.funcExit {
			h(fi, em)
		}
	}
}

// Walker is one worker's per-file rule walk: a program and an Emitter
// of its own, reused across the files the worker walks. Rule closures
// carry per-function state, so a Walker is never shared between
// goroutines.
type Walker struct {
	prog *Registrar
	em   Emitter
}

// NewWalker builds a walker over the rule set.
func NewWalker(rs []Rule) *Walker { return &Walker{prog: newProgram(rs)} }

// FileWalk is what one file's walk yields: its findings, sorted under
// findingLess, without those of its conditions, and the conditions,
// which the engine evaluates against an index (Sharded.Fill and
// Update).
type FileWalk struct {
	Findings []Finding
	conds    []condAt
}

// Walk runs the program over one parsed unit and its records. The
// result holds facts only (findings and conditions), never a node of
// the unit.
func (w *Walker) Walk(tu *ccast.TranslationUnit, funcs []*FuncInfo) FileWalk {
	em := &w.em
	em.out, em.conds = nil, em.conds[:0]
	w.prog.runUnit(tu, funcs, em)
	sortFindings(em.out)
	return FileWalk{Findings: em.out, conds: slices.Clone(em.conds)}
}

// withHeld returns the walk's findings with the finding of each
// condition for which held reports true merged in, in findingLess
// order. funcs is the file's function list, which the conditions index.
func (fw FileWalk) withHeld(funcs []*FuncInfo, held func(k int) bool) []Finding {
	out := fw.Findings
	for k, c := range fw.conds {
		if held(k) {
			out = append(out, c.finding(funcs[c.fn], c.line))
		}
	}
	if len(out) > len(fw.Findings) {
		sortFindings(out)
	}
	return out
}

// walkUnits walks the index's parsed units under paths on a worker
// pool, one Walker per worker, and returns each one's walk by path.
func walkUnits(ix *artifact.Index, rs []Rule, paths []string) map[string]FileWalk {
	walks := make([]FileWalk, len(paths))
	workers := par.Workers(len(paths))
	walkers := make([]*Walker, workers)
	for w := range walkers {
		walkers[w] = NewWalker(rs)
	}
	par.ForWorkers(workers, len(paths), func(w, i int) {
		walks[i] = walkers[w].Walk(ix.Units[paths[i]], ix.UnitFuncs(paths[i]))
	})
	out := make(map[string]FileWalk, len(paths))
	for i, p := range paths {
		out[p] = walks[i]
	}
	return out
}
