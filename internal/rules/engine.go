package rules

import (
	"repro/internal/ccast"
	"repro/internal/par"
)

// This file implements the fused single-pass walk the sharded engine
// runs per file. The seed engine gave every rule its own full-corpus
// traversal (20+ ccast walks over every function body); here each
// function body is walked exactly once and node events are dispatched to
// the rules that registered interest. Files are processed in parallel by
// a worker pool and merged deterministically, so the engine's output is
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

// Emitter collects findings during a pass. Rules call Emit; the engine
// owns the buffer and drains it per file so parallel workers never share
// finding slices.
type Emitter struct {
	out []Finding
}

// Emit appends one finding.
func (em *Emitter) Emit(f Finding) { em.out = append(em.out, f) }

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
	// CorpusFn fires once for the whole corpus (cross-file rules).
	CorpusFn func(ctx *Context, em *Emitter)
)

// Registrar collects one engine program: every fused rule's subscriptions
// for one worker. Rule closures may keep per-function state; a program is
// never shared between goroutines.
//
// Contract for per-file handlers (OnNode, OnFunc*, OnUnit, OnDecl): a
// handler reads cross-file facts (Context.ByName, Context.GlobalNames)
// only through names spelled in its own file — a call's CalleeName, a
// local declarator's name. The frontend does no macro expansion, so such
// a name occurs as an identifier in the file's source, and the sharded
// engine re-checks, after a delta, only the files spelling a name whose
// facts moved. A handler looking a fact up under a name its file does
// not spell would go stale.
type Registrar struct {
	nodes     [numNodeKinds][]NodeFn
	funcEnter []FuncFn
	funcExit  []FuncFn
	funcWhole []FuncFn
	units     []UnitFn
	decls     []DeclFn
	corpus    []CorpusFn
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

// OnCorpus subscribes a corpus-level handler, run exactly once per Run
// regardless of worker count.
//
// Contract: a corpus handler must be a pure function of the artifact
// index's cross-file views — function records (names, files, declaration
// lines, complexity, return counts, callee lists) and global variable
// names. The sharded engine re-runs corpus handlers only after the index
// changed (and maintains RecursionRule's output from the index change
// feed instead); a handler reading anything else (statement bodies, file
// text) would go stale across runs over an unchanged index.
func (rg *Registrar) OnCorpus(h CorpusFn) { rg.corpus = append(rg.corpus, h) }

// newProgram builds a fresh program over the rules.
func newProgram(ctx *Context, rs []Rule) *Registrar {
	rg := &Registrar{}
	for _, r := range rs {
		r.Fuse(rg, ctx)
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
// decl-level dispatch, then one fused walk per function body.
func (rg *Registrar) runUnit(ctx *Context, path string, em *Emitter) {
	tu := ctx.Units[path]
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
	for _, fi := range ctx.unitFuncs[path] {
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

// runCorpusHooks builds one program and fires its corpus-level hooks,
// returning the program so callers can see whether it has any.
func runCorpusHooks(ctx *Context, rs []Rule, em *Emitter) *Registrar {
	prog := newProgram(ctx, rs)
	for _, h := range prog.corpus {
		h(ctx, em)
	}
	return prog
}

// runUnits executes per-file programs over the given paths on a worker
// pool and returns the findings of each path, index-aligned. Each worker
// builds its own program: rule closures carry per-function state, so a
// program is never shared between goroutines.
func runUnits(ctx *Context, rs []Rule, paths []string) [][]Finding {
	if len(paths) == 0 {
		return nil
	}
	perFile := make([][]Finding, len(paths))
	workers := par.Workers(len(paths))
	progs := make([]*Registrar, workers)
	ems := make([]*Emitter, workers)
	for w := range progs {
		progs[w], ems[w] = newProgram(ctx, rs), &Emitter{}
	}
	par.ForWorkers(workers, len(paths), func(w, i int) {
		em := ems[w]
		em.out = nil
		progs[w].runUnit(ctx, paths[i], em)
		perFile[i] = em.out
	})
	return perFile
}
