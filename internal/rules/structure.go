package rules

import (
	"fmt"
	"sort"

	"repro/internal/ccast"
	"repro/internal/iso26262"
)

var (
	refSingleExit   = iso26262.Ref{Table: iso26262.TableUnit, Item: 1}
	refNoDynamic    = iso26262.Ref{Table: iso26262.TableUnit, Item: 2}
	refInitVars     = iso26262.Ref{Table: iso26262.TableUnit, Item: 3}
	refUniqueNames  = iso26262.Ref{Table: iso26262.TableUnit, Item: 4}
	refNoGlobals    = iso26262.Ref{Table: iso26262.TableUnit, Item: 5}
	refLimitedPtrs  = iso26262.Ref{Table: iso26262.TableUnit, Item: 6}
	refNoJumps      = iso26262.Ref{Table: iso26262.TableUnit, Item: 9}
	refNoHiddenFlow = iso26262.Ref{Table: iso26262.TableUnit, Item: 8}
	refNoRecursion  = iso26262.Ref{Table: iso26262.TableUnit, Item: 10}
	refDesignPrinc  = iso26262.Ref{Table: iso26262.TableCoding, Item: 5}
)

// MultiExitRule flags functions with more than one exit point. The paper
// reports 41% of functions in the object detection module violate this.
type MultiExitRule struct{}

// ID implements Rule.
func (*MultiExitRule) ID() string { return "multi-exit" }

// Describe implements Rule.
func (*MultiExitRule) Describe() string {
	return "functions must have one entry and one exit point (ISO26262-6 T8.1)"
}

// Check implements Rule.
func (r *MultiExitRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, fi := range ctx.Funcs {
		r.funcFindings(fi, em)
	}
	return em.out
}

// funcFindings flags one function from its cached return count. A
// trailing return plus any earlier return means multiple exits; void
// functions with no return have exactly one (fall-through).
func (r *MultiExitRule) funcFindings(fi *FuncInfo, em *Emitter) {
	if n := fi.Returns; n > 1 {
		em.Emit(finding(r.ID(), Violation, fi, fi.Decl.Span().Start.Line,
			fmt.Sprintf("function %s has %d exit points", fi.Decl.Name, n),
			refSingleExit))
	}
}

// Fuse implements Rule.
func (r *MultiExitRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnFuncExit(r.funcFindings)
}

// DynamicMemoryRule flags heap allocation: malloc family, C++ new/delete,
// and CUDA device allocations — the paper's Observation 4 territory.
type DynamicMemoryRule struct{}

// ID implements Rule.
func (*DynamicMemoryRule) ID() string { return "dynamic-memory" }

// Describe implements Rule.
func (*DynamicMemoryRule) Describe() string {
	return "no dynamic objects or variables (ISO26262-6 T8.2)"
}

// allocCalls are allocation entry points; cudaMalloc/cudaFree evidence the
// paper's finding that CUDA intrinsically depends on dynamic memory.
var allocCalls = map[string]bool{
	"malloc": true, "calloc": true, "realloc": true, "free": true,
	"cudaMalloc": true, "cudaFree": true, "cudaMallocManaged": true,
	"cudaMallocHost": true, "cudaFreeHost": true,
}

// Check implements Rule.
func (r *DynamicMemoryRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, fi := range ctx.Funcs {
		ccast.WalkExprs(fi.Decl.Body, func(e ccast.Expr) bool {
			r.nodeFindings(fi, e, em)
			return true
		})
	}
	return em.out
}

// nodeFindings flags one allocation site.
func (r *DynamicMemoryRule) nodeFindings(fi *FuncInfo, n ccast.Node, em *Emitter) {
	switch n := n.(type) {
	case *ccast.Call:
		if name := CalleeName(n); allocCalls[name] {
			em.Emit(finding(r.ID(), Violation, fi, n.Span().Start.Line,
				fmt.Sprintf("dynamic memory via %s()", name), refNoDynamic))
		}
	case *ccast.NewExpr:
		em.Emit(finding(r.ID(), Violation, fi, n.Span().Start.Line,
			"dynamic memory via new", refNoDynamic))
	case *ccast.DeleteExpr:
		em.Emit(finding(r.ID(), Violation, fi, n.Span().Start.Line,
			"dynamic memory via delete", refNoDynamic))
	}
}

// Fuse implements Rule.
func (r *DynamicMemoryRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnNode(r.nodeFindings, KCall, KNew, KDelete)
}

// PointerRule counts pointer declarations (locals, parameters, globals)
// against "limited use of pointers".
type PointerRule struct{}

// ID implements Rule.
func (*PointerRule) ID() string { return "pointer" }

// Describe implements Rule.
func (*PointerRule) Describe() string {
	return "limited use of pointers (ISO26262-6 T8.6)"
}

// Check implements Rule.
func (r *PointerRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, fi := range ctx.Funcs {
		r.paramFindings(fi, em)
		ccast.Walk(fi.Decl.Body, func(n ccast.Node) bool {
			if ds, ok := n.(*ccast.DeclStmt); ok {
				r.declStmtFindings(fi, ds, em)
			}
			return true
		})
	}
	for _, tu := range ctx.sortedUnits() {
		r.unitFindings(tu, em)
	}
	return em.out
}

// paramFindings flags pointer parameters.
func (r *PointerRule) paramFindings(fi *FuncInfo, em *Emitter) {
	for _, p := range fi.Decl.Params {
		if p.Type.IsPointer() {
			em.Emit(finding(r.ID(), Info, fi, p.Span().Start.Line,
				fmt.Sprintf("pointer parameter %s %s", typeSpelling(p.Type), p.Name),
				refLimitedPtrs))
		}
	}
}

// declStmtFindings flags pointer locals in one declaration statement.
func (r *PointerRule) declStmtFindings(fi *FuncInfo, ds *ccast.DeclStmt, em *Emitter) {
	for _, d := range ds.Decl.Names {
		if d.Type.IsPointer() {
			em.Emit(finding(r.ID(), Info, fi, d.Span().Start.Line,
				fmt.Sprintf("pointer variable %s %s", typeSpelling(d.Type), d.Name),
				refLimitedPtrs))
		}
	}
}

// unitFindings flags file-scope pointer variables.
func (r *PointerRule) unitFindings(tu *ccast.TranslationUnit, em *Emitter) {
	for _, vd := range tu.GlobalVars() {
		for _, d := range vd.Names {
			if d.Type.IsPointer() {
				em.Emit(fileFinding(r.ID(), Warning, tu.File, d.Span().Start.Line,
					fmt.Sprintf("global pointer %s %s", typeSpelling(d.Type), d.Name),
					refLimitedPtrs))
			}
		}
	}
}

// Fuse implements Rule.
func (r *PointerRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnFuncEnter(r.paramFindings)
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		r.declStmtFindings(fi, n.(*ccast.DeclStmt), em)
	}, KDeclStmt)
	rg.OnUnit(r.unitFindings)
}

// GlobalVarRule flags file-scope mutable variables (const-qualified
// globals are configuration constants and pass).
type GlobalVarRule struct{}

// ID implements Rule.
func (*GlobalVarRule) ID() string { return "global-var" }

// Describe implements Rule.
func (*GlobalVarRule) Describe() string {
	return "avoid global variables or justify usage (ISO26262-6 T8.5, T1.5)"
}

// Check implements Rule.
func (r *GlobalVarRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, tu := range ctx.sortedUnits() {
		r.unitFindings(tu, em)
	}
	return em.out
}

// unitFindings flags one unit's mutable file-scope variables.
func (r *GlobalVarRule) unitFindings(tu *ccast.TranslationUnit, em *Emitter) {
	for _, vd := range tu.GlobalVars() {
		for _, d := range vd.Names {
			if d.Type.Quals.Has(ccast.QualConst) || d.Type.Quals.Has(ccast.QualConstexpr) {
				continue
			}
			em.Emit(fileFinding(r.ID(), Violation, tu.File, d.Span().Start.Line,
				fmt.Sprintf("global variable %q", d.Name), refNoGlobals, refDesignPrinc))
		}
	}
}

// Fuse implements Rule.
func (r *GlobalVarRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnUnit(r.unitFindings)
}

// GotoRule flags unconditional jumps.
type GotoRule struct{}

// ID implements Rule.
func (*GotoRule) ID() string { return "goto" }

// Describe implements Rule.
func (*GotoRule) Describe() string {
	return "no unconditional jumps (ISO26262-6 T8.9)"
}

// Check implements Rule.
func (r *GotoRule) Check(ctx *Context) []Finding {
	em := &Emitter{}
	for _, fi := range ctx.Funcs {
		ccast.WalkStmts(fi.Decl.Body, func(s ccast.Stmt) bool {
			if g, ok := s.(*ccast.Goto); ok {
				r.gotoFinding(fi, g, em)
			}
			return true
		})
	}
	return em.out
}

// gotoFinding reports one unconditional jump.
func (r *GotoRule) gotoFinding(fi *FuncInfo, g *ccast.Goto, em *Emitter) {
	em.Emit(finding(r.ID(), Violation, fi, g.Span().Start.Line,
		fmt.Sprintf("goto %s", g.Label), refNoJumps, refNoHiddenFlow))
}

// Fuse implements Rule.
func (r *GotoRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnNode(func(fi *FuncInfo, n ccast.Node, em *Emitter) {
		r.gotoFinding(fi, n.(*ccast.Goto), em)
	}, KGoto)
}

// RecursionRule detects direct and mutual recursion over the corpus-wide
// call graph (depth-first cycle detection on unqualified names).
type RecursionRule struct{}

// ID implements Rule.
func (*RecursionRule) ID() string { return "recursion" }

// Describe implements Rule.
func (*RecursionRule) Describe() string {
	return "no recursions (ISO26262-6 T8.10)"
}

// Check implements Rule. It is the full SCC over every defined name;
// the sharded engine maintains the same on-cycle set incrementally
// (cycleCache) and RunSequential and the oracles use this one.
func (r *RecursionRule) Check(ctx *Context) []Finding {
	names := make([]string, 0, len(ctx.ByName))
	for n := range ctx.ByName {
		names = append(names, n)
	}
	sort.Strings(names) // deterministic traversal order
	status := cycleStatus(ctx.ByName, names)
	var out []Finding
	for _, n := range names {
		if status[n] {
			out = append(out, r.finding(ctx.ByName[n]))
		}
	}
	return out
}

// finding renders one on-cycle function's finding from its champion.
func (r *RecursionRule) finding(fi *FuncInfo) Finding {
	return finding(r.ID(), Violation, fi, fi.Decl.Span().Start.Line,
		fmt.Sprintf("function %s participates in recursion", fi.Decl.Name),
		refNoRecursion)
}

// cycleStatus runs Tarjan's SCC algorithm over the call graph of the
// defined functions (edges: a champion's callees that are themselves
// defined) from the given roots, in order, and returns every visited
// name mapped to whether it lies on a cycle — a multi-node component or
// a self-loop. Roots that are not defined are skipped. Every name
// reachable from a root is visited, and each visited name's component
// is complete, so its status is exact however few roots are given.
func cycleStatus(byName map[string]*FuncInfo, roots []string) map[string]bool {
	status := make(map[string]bool)
	var stack []string
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	counter := 0
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = counter
		low[v] = counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		selfLoop := false
		for _, w := range byName[v].Callees {
			if _, defined := byName[w]; !defined {
				continue
			}
			if w == v {
				selfLoop = true
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			cyclic := len(comp) > 1 || selfLoop
			for _, w := range comp {
				status[w] = cyclic
			}
		}
	}
	for _, n := range roots {
		if _, defined := byName[n]; !defined {
			continue
		}
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return status
}

// Fuse implements Rule. Recursion is inherently corpus-level (SCC
// over the whole call graph), so it registers a corpus hook that runs
// exactly once per engine run. The sharded engine does not fire this
// hook: it keeps the on-cycle set across deltas (cycleCache).
func (r *RecursionRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnCorpus(func(ctx *Context, em *Emitter) {
		for _, f := range r.Check(ctx) {
			em.Emit(f)
		}
	})
}

// UninitializedRule flags local scalars declared without an initializer
// that are read before any assignment along straight-line statement order
// (a deliberately conservative, flow-insensitive-within-branches check,
// mirroring what "compiler options and static analysis tools" flag).
type UninitializedRule struct{}

// ID implements Rule.
func (*UninitializedRule) ID() string { return "uninit" }

// Describe implements Rule.
func (*UninitializedRule) Describe() string {
	return "initialization of variables (ISO26262-6 T8.3)"
}

// Check implements Rule.
func (r *UninitializedRule) Check(ctx *Context) []Finding {
	var out []Finding
	for _, fi := range ctx.Funcs {
		out = append(out, checkUninitBlock(r.ID(), fi, fi.Decl.Body)...)
	}
	return out
}

// Fuse implements Rule. The straight-line initialization analysis
// needs its own block-structured traversal (it prunes under address-of
// and tracks per-block state), so it registers as a whole-function pass.
func (r *UninitializedRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnFunc(func(fi *FuncInfo, em *Emitter) {
		for _, f := range checkUninitBlock(r.ID(), fi, fi.Decl.Body) {
			em.Emit(f)
		}
	})
}

func checkUninitBlock(ruleID string, fi *FuncInfo, b *ccast.Block) []Finding {
	var out []Finding
	if b == nil {
		return nil
	}
	declared := make(map[string]int) // name → decl line, pending init
	markAssigned := func(e ccast.Expr) {
		if id, ok := e.(*ccast.Ident); ok {
			delete(declared, id.Name)
		}
	}
	var checkReads func(n ccast.Node)
	checkReads = func(n ccast.Node) {
		ccast.WalkExprs(n, func(e ccast.Expr) bool {
			if id, ok := e.(*ccast.Ident); ok {
				if line, pending := declared[id.Name]; pending {
					out = append(out, finding(ruleID, Violation, fi, id.Span().Start.Line,
						fmt.Sprintf("variable %q (declared line %d) read before initialization", id.Name, line),
						refInitVars))
					delete(declared, id.Name)
				}
			}
			return true
		})
	}
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *ccast.DeclStmt:
			for _, d := range s.Decl.Names {
				if d.Init != nil {
					checkReads(d.Init)
					continue
				}
				// Arrays/records often get filled elementwise; restrict to
				// scalar arithmetic types to stay precise.
				if len(d.Type.ArrayDims) == 0 && d.Type.PtrDepth == 0 &&
					(isIntName(d.Type.Name) || isFloatName(d.Type.Name)) {
					declared[d.Name] = d.Span().Start.Line
				}
			}
		case *ccast.ExprStmt:
			if a, ok := s.X.(*ccast.Assign); ok {
				checkReads(a.R)
				if a.Op != "=" {
					checkReads(a.L)
				}
				markAssigned(a.L)
				continue
			}
			// A call may write through &x: treat address-taken vars as
			// assigned.
			ccast.WalkExprs(s.X, func(e ccast.Expr) bool {
				if u, ok := e.(*ccast.Unary); ok && u.Op == "&" {
					markAssigned(u.X)
					return false
				}
				return true
			})
			checkReads(s.X)
		default:
			// Any control flow: check reads within, then drop tracking of
			// everything it might assign (conservative).
			checkReads(s)
			ccast.WalkExprs(s, func(e ccast.Expr) bool {
				if a, ok := e.(*ccast.Assign); ok {
					markAssigned(a.L)
				}
				if u, ok := e.(*ccast.Unary); ok && u.Op == "&" {
					markAssigned(u.X)
				}
				return true
			})
		}
	}
	return out
}

// ShadowRule flags locals that reuse the name of a file-scope variable or
// of an outer-scope local ("no multiple use of variable names").
type ShadowRule struct{}

// ID implements Rule.
func (*ShadowRule) ID() string { return "shadow" }

// Describe implements Rule.
func (*ShadowRule) Describe() string {
	return "no multiple use of variable names (ISO26262-6 T8.4)"
}

// Check implements Rule.
func (r *ShadowRule) Check(ctx *Context) []Finding {
	var out []Finding
	for _, fi := range ctx.Funcs {
		out = append(out, r.checkFunc(ctx, fi)...)
	}
	return out
}

// Fuse implements Rule. Shadowing requires scope-aware recursion
// through nested blocks, so it registers as a whole-function pass.
func (r *ShadowRule) Fuse(rg *Registrar, ctx *Context) {
	rg.OnFunc(func(fi *FuncInfo, em *Emitter) {
		for _, f := range r.checkFunc(ctx, fi) {
			em.Emit(f)
		}
	})
}

// checkFunc runs the scoped shadowing analysis over one function. Scopes
// are kept on one name stack with frame marks instead of per-block map
// copies: function scopes hold a handful of names, so a linear scan beats
// allocating and copying a map at every nesting level (this is the rule
// engine's hottest allocation site on large corpora).
func (r *ShadowRule) checkFunc(ctx *Context, fi *FuncInfo) []Finding {
	var out []Finding
	var names []string
	for _, p := range fi.Decl.Params {
		names = append(names, p.Name)
	}
	inScope := func(n string) bool {
		for i := len(names) - 1; i >= 0; i-- {
			if names[i] == n {
				return true
			}
		}
		return false
	}
	var walkBlock func(b *ccast.Block)
	nested := func(s ccast.Stmt) {
		if blk, ok := s.(*ccast.Block); ok {
			walkBlock(blk)
		}
	}
	walkBlock = func(b *ccast.Block) {
		if b == nil {
			return
		}
		mark := len(names)
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *ccast.DeclStmt:
				for _, d := range s.Decl.Names {
					if inScope(d.Name) {
						out = append(out, finding(r.ID(), Warning, fi, d.Span().Start.Line,
							fmt.Sprintf("declaration of %q shadows an outer declaration", d.Name),
							refUniqueNames, refNoHiddenFlow))
					} else if _, isGlobal := ctx.GlobalNames[d.Name]; isGlobal {
						out = append(out, finding(r.ID(), Warning, fi, d.Span().Start.Line,
							fmt.Sprintf("declaration of %q shadows a global variable", d.Name),
							refUniqueNames, refNoHiddenFlow))
					}
					names = append(names, d.Name)
				}
			case *ccast.Block:
				walkBlock(s)
			case *ccast.If:
				nested(s.Then)
				nested(s.Else)
			case *ccast.While:
				nested(s.Body)
			case *ccast.DoWhile:
				nested(s.Body)
			case *ccast.For:
				forMark := len(names)
				if ds, ok := s.Init.(*ccast.DeclStmt); ok {
					for _, d := range ds.Decl.Names {
						names = append(names, d.Name)
					}
				}
				nested(s.Body)
				names = names[:forMark]
			case *ccast.Switch:
				for _, c := range s.Cases {
					for _, cs := range c.Body {
						if blk, ok := cs.(*ccast.Block); ok {
							walkBlock(blk)
						}
					}
				}
			}
		}
		names = names[:mark]
	}
	walkBlock(fi.Decl.Body)
	return out
}
