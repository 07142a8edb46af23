package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// AliasMut flags writes through zero-copy aliases. Several hot-path
// accessors return views of internal state rather than copies —
// artifact.Shard.Paths/Funcs, srcfile.FileSet.Files/ModuleFiles,
// store.Snapshot.RuleIDs, rules.Sharded.ShardFindings/CorpusFindings,
// metrics.Cache.ShardRows — with a doc-comment contract that callers
// must not mutate the result. (The other zero-copy surfaces, cclex
// token texts and snapshot block substrings, are strings and therefore
// immutable by construction; slices are where the contract needs a
// checker.) A caller that sorts such a
// slice in place, writes an element, appends into its spare capacity,
// or mutates a shared element pointer corrupts warm state that the
// incremental engine trusts to be stable.
//
// The declaring package itself is exempt — maintaining internal state
// through internal aliases is its job.
var AliasMut = &analysis.Analyzer{
	Name: "aliasmut",
	Doc: "flags in-place mutation (element writes, sorts, appends, copy-into) of slices returned by " +
		"zero-copy accessors whose contract is read-only",
	Run: runAliasMut,
}

// aliasAccessors registers the read-only zero-copy accessors as
// "<recv-pkg-base>.<recv-type>.<method>".
var aliasAccessors = map[string]bool{
	"artifact.Shard.Paths":         true,
	"artifact.Index.ShardNames":    true,
	"artifact.Index.UnitFuncs":     true,
	"srcfile.FileSet.Files":        true,
	"srcfile.FileSet.ModuleFiles":  true,
	"store.Snapshot.RuleIDs":       true,
	"rules.Sharded.ShardFindings":  true,
	"rules.Sharded.CorpusFindings": true,
	"metrics.Cache.ShardRows":      true,
}

func runAliasMut(pass *analysis.Pass) error {
	analyzedBase := pkgBase(pass.Pkg.Path())
	for _, f := range pass.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			m := &aliasScan{pass: pass, self: analyzedBase,
				tainted: map[types.Object]string{}, elem: map[types.Object]string{}}
			m.scan(body)
		})
	}
	return nil
}

type aliasScan struct {
	pass *analysis.Pass
	self string
	// tainted maps a variable to the accessor whose internal slice it
	// aliases; elem maps variables aliasing one ELEMENT of such a
	// slice (shared pointers).
	tainted map[types.Object]string
	elem    map[types.Object]string
}

// scan walks the body in source order; taint propagation is a single
// forward pass, which covers the straight-line aliasing this check is
// after.
func (m *aliasScan) scan(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			m.assign(v)
		case *ast.RangeStmt:
			if src := m.sourceOf(v.X); src != "" {
				if v.Value != nil {
					if obj := identObj(m.pass.TypesInfo, v.Value); obj != nil && pointerish(obj.Type()) {
						m.elem[obj] = src
					}
				}
			}
		case *ast.CallExpr:
			m.call(v)
		}
		return true
	})
}

// sourceOf reports the accessor name when e aliases a registered
// accessor's internal state: a direct accessor call, a tainted
// variable, or a subslice of either.
func (m *aliasScan) sourceOf(e ast.Expr) string {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		// v[a:b] still aliases v's backing array. (A full-slice-copy
		// idiom like append([]T(nil), v...) has v on the RHS, not here.)
		return m.sourceOf(sl.X)
	}
	if call, ok := e.(*ast.CallExpr); ok {
		if name := m.accessor(call); name != "" {
			return name
		}
		return ""
	}
	if obj := identObj(m.pass.TypesInfo, e); obj != nil {
		return m.tainted[obj]
	}
	return ""
}

// accessor resolves a call to a registered read-only accessor.
func (m *aliasScan) accessor(call *ast.CallExpr) string {
	obj := calleeObj(m.pass.TypesInfo, call)
	if obj == nil {
		return ""
	}
	pkg, recv, name, ok := methodInfo(obj)
	if !ok || pkg == m.self {
		return ""
	}
	key := pkg + "." + recv + "." + name
	if aliasAccessors[key] {
		return key
	}
	return ""
}

func (m *aliasScan) assign(st *ast.AssignStmt) {
	// Taint propagation: x := accessor(), y := x, e := x[i].
	if len(st.Lhs) >= 1 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if name := m.accessor(call); name != "" {
				// Multi-result accessors (ShardFindings) taint every
				// non-blank result.
				for _, l := range st.Lhs {
					if obj := identObj(m.pass.TypesInfo, l); obj != nil {
						m.tainted[obj] = name
					}
				}
			}
		}
	}
	if len(st.Lhs) == len(st.Rhs) {
		for i := range st.Lhs {
			lobj := identObj(m.pass.TypesInfo, st.Lhs[i])
			if lobj == nil {
				continue
			}
			r := ast.Unparen(st.Rhs[i])
			if src := m.sourceOf(r); src != "" {
				m.tainted[lobj] = src
			}
			if ix, ok := r.(*ast.IndexExpr); ok {
				if src := m.sourceOf(ix.X); src != "" && pointerish(lobj.Type()) {
					m.elem[lobj] = src
				}
			}
		}
	}

	// Violations on the left-hand side.
	for _, lhs := range st.Lhs {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			if src := m.sourceOf(l.X); src != "" {
				m.pass.Reportf(st.Pos(),
					"writing an element of the slice returned by %s, which aliases internal state; copy it before mutating", src)
			}
		case *ast.SelectorExpr:
			if obj := identObj(m.pass.TypesInfo, l.X); obj != nil {
				if src := m.elem[obj]; src != "" {
					m.pass.Reportf(st.Pos(),
						"writing a field of an element shared with %s; the element is live internal state — mutate a copy", src)
				}
			}
		}
	}
}

func (m *aliasScan) call(call *ast.CallExpr) {
	obj := calleeObj(m.pass.TypesInfo, call)
	if obj == nil || len(call.Args) == 0 {
		return
	}
	// sort.X(v) / slices.SortX(v) / sort.Sort(ByX(v)) reorder in place.
	if isSortCall(m.pass.TypesInfo, call) {
		arg := ast.Unparen(call.Args[0])
		src := m.sourceOf(arg)
		if src == "" {
			if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
				src = m.sourceOf(conv.Args[0])
			}
		}
		if src != "" {
			m.pass.Reportf(call.Pos(),
				"sorting the slice returned by %s in place; it aliases internal state whose order is load-bearing — sort a copy", src)
		}
		return
	}
	if b, ok := obj.(*types.Builtin); ok {
		switch b.Name() {
		case "append":
			if src := m.sourceOf(call.Args[0]); src != "" {
				m.pass.Reportf(call.Pos(),
					"append to the slice returned by %s may write into its spare capacity, mutating internal state; clone it first (append([]T(nil), s...))", src)
			}
		case "copy":
			if src := m.sourceOf(call.Args[0]); src != "" {
				m.pass.Reportf(call.Pos(),
					"copy into the slice returned by %s overwrites internal state; copy out of it instead", src)
			}
		}
	}
}

// pointerish reports whether t is a pointer-like element type whose
// mutation would be visible through the shared slice.
func pointerish(t types.Type) bool {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Interface:
		return true
	}
	return false
}
