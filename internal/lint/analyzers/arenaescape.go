package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// ArenaEscape enforces the DESIGN.md "Arena lifetimes" contract: ccast
// AST nodes are slab-allocated, an arena owns every node carved from
// it, and keeping any node alive keeps its whole chunk alive. Unit
// tables (artifact.Unit) share the unit's lifetime and may hold nodes;
// everything that outlives a unit — rule caches keyed by unit generation,
// metric rows, snapshot/persisted state, the corpus-level interner,
// the serving layer — must hold facts, never nodes, or a replaced
// file's whole arena chunk stays pinned forever.
//
// Two checks:
//
//  1. declaration: a registered long-lived type may not declare a field
//     whose type mentions a ccast node pointer, the ccast.Node
//     interface, or an Arena/Slab;
//  2. flow: no statement may store a ccast-node-typed value into a
//     field, map, or composite literal of a registered long-lived type
//     (this is what catches interface{}-typed escape hatches).
var ArenaEscape = &analysis.Analyzer{
	Name: "arenaescape",
	Doc: "flags ccast arena-allocated nodes stored into long-lived state " +
		"(rule caches, metric rows, store/persisted state, interner, service) in violation of the arena-lifetime contract",
	Run: runArenaEscape,
}

// longLived registers the containers that outlive translation units.
// A nil set registers the whole package.
var longLived = map[string]map[string]bool{
	"store":   nil,
	"service": nil,
	"cclex":   {"Interner": true},
	"rules":   {"Sharded": true, "Finding": true, "Stats": true, "FileWalk": true, "Conditions": true},
	"metrics": {"Cache": true, "ArchCache": true, "FileMetrics": true, "FunctionMetrics": true, "ModuleMetrics": true, "ArchMetrics": true},
	// fileState is what the cold load's per-file step keeps once it has
	// reset the worker's arena.
	"core": {"PersistedState": true, "PersistedShard": true, "EncodedShard": true, "fileState": true},
	"artifact": {
		// Facts are the persisted, AST-free projection of a unit; a
		// node smuggled into them defeats the whole snapshot design.
		"UnitFacts": true, "FuncFacts": true,
	},
}

// isLongLived reports whether the named type is registered.
func isLongLived(n *types.Named) bool {
	if n.Obj().Pkg() == nil {
		return false
	}
	set, ok := longLived[pkgBase(n.Obj().Pkg().Path())]
	if !ok {
		return false
	}
	return set == nil || set[n.Obj().Name()]
}

// mentionsArenaValue reports whether t can carry a reference into an
// arena: a pointer to any ccast named type, the ccast.Node (or any
// ccast interface) type, an Arena or Slab by value or pointer, or a
// composite (slice/array/map/chan/anonymous struct) containing one.
// Named non-ccast types stop the recursion — their own declarations
// are checked where they are declared.
func mentionsArenaValue(t types.Type) bool {
	return mentionsArena(t, 0)
}

func mentionsArena(t types.Type, depth int) bool {
	if depth > 8 {
		return false
	}
	t = types.Unalias(t)
	switch v := t.(type) {
	case *types.Pointer:
		if n, ok := types.Unalias(v.Elem()).(*types.Named); ok {
			return fromCCast(n)
		}
		return mentionsArena(v.Elem(), depth+1)
	case *types.Named:
		if fromCCast(v) {
			// By value: interfaces (Node, Expr, Stmt) hold node
			// pointers; Arena/Slab pin chunks. Plain value structs
			// (spans, small records) are copies and do not pin.
			if _, isIface := v.Underlying().(*types.Interface); isIface {
				return true
			}
			name := v.Obj().Name()
			return name == "Arena" || name == "Slab"
		}
		return false
	case *types.Slice:
		return mentionsArena(v.Elem(), depth+1)
	case *types.Array:
		return mentionsArena(v.Elem(), depth+1)
	case *types.Map:
		return mentionsArena(v.Key(), depth+1) || mentionsArena(v.Elem(), depth+1)
	case *types.Chan:
		return mentionsArena(v.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if mentionsArena(v.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	}
	return false
}

func fromCCast(n *types.Named) bool {
	return n.Obj().Pkg() != nil && pkgBase(n.Obj().Pkg().Path()) == "ccast"
}

func runArenaEscape(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.TypeSpec:
				checkLongLivedDecl(pass, v)
			case *ast.AssignStmt:
				checkArenaAssign(pass, v)
			case *ast.CompositeLit:
				checkArenaComposite(pass, v)
			}
			return true
		})
	}
	return nil
}

// checkLongLivedDecl flags arena-capable fields declared on registered
// long-lived struct types.
func checkLongLivedDecl(pass *analysis.Pass, spec *ast.TypeSpec) {
	obj := pass.TypesInfo.Defs[spec.Name]
	if obj == nil {
		return
	}
	named, ok := types.Unalias(obj.Type()).(*types.Named)
	if !ok || !isLongLived(named) {
		return
	}
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		ft := pass.TypesInfo.Types[field.Type].Type
		if ft != nil && mentionsArenaValue(ft) {
			pass.Reportf(field.Pos(),
				"long-lived type %s declares a field that can hold ccast arena nodes; keeping any node alive pins its whole arena chunk — store facts instead (see DESIGN.md \"Arena lifetimes\")",
				named.Obj().Name())
		}
	}
}

// checkArenaAssign flags `x.F = node`, `x.M[k] = node` where x is
// long-lived and node's static type mentions the arena.
func checkArenaAssign(pass *analysis.Pass, st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		} else {
			rhs = st.Rhs[0]
		}
		rt := pass.TypesInfo.Types[rhs].Type
		if rt == nil || !mentionsArenaValue(rt) {
			continue
		}
		if owner := longLivedOwner(pass, lhs); owner != "" {
			pass.Reportf(st.Pos(),
				"storing a ccast arena value into long-lived %s; the arena chunk outlives the unit — store facts instead (see DESIGN.md \"Arena lifetimes\")",
				owner)
		}
	}
}

// longLivedOwner reports the registered type owning the assignment
// target: x.F (field of long-lived), x.M[k] (map/slice of a long-lived
// holder's field), or "" when the target is not long-lived state.
func longLivedOwner(pass *analysis.Pass, lhs ast.Expr) string {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel := pass.TypesInfo.Selections[l]
		if sel == nil || sel.Kind() != types.FieldVal {
			return ""
		}
		if recv, ok := namedOf(sel.Recv()); ok && isLongLived(recv) {
			return recv.Obj().Name() + "." + l.Sel.Name
		}
	case *ast.IndexExpr:
		// x.M[k] = node: the indexed container must itself live on a
		// long-lived type.
		return longLivedOwner(pass, l.X)
	}
	return ""
}

// checkArenaComposite flags LongLived{F: node} literals.
func checkArenaComposite(pass *analysis.Pass, lit *ast.CompositeLit) {
	t := pass.TypesInfo.Types[lit].Type
	if t == nil {
		return
	}
	named, ok := namedOf(t)
	if !ok || !isLongLived(named) {
		return
	}
	for _, el := range lit.Elts {
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		vt := pass.TypesInfo.Types[val].Type
		if vt != nil && mentionsArenaValue(vt) {
			pass.Reportf(val.Pos(),
				"ccast arena value placed into long-lived %s literal; the arena chunk outlives the unit — store facts instead (see DESIGN.md \"Arena lifetimes\")",
				named.Obj().Name())
		}
	}
}
