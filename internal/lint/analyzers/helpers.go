// Package analyzers holds the six adlint checks that machine-enforce
// this repo's documented invariants: arena lifetimes (arenaescape),
// deterministic output surfaces (detrange), lock acquisition order
// (lockorder), checked persistence errors (syncerr), read-only
// zero-copy aliases (aliasmut), and no unreferenced unexported
// functions (deadfunc).
//
// Every analyzer identifies the types and functions it cares about by
// package *base name* plus type/method name, not full import path.
// That keeps one registry working against both the real packages
// (repro/internal/store) and the analysistest golden packages
// (.../testdata/src/syncerr/store), exactly how upstream vet tests
// stand in for net/http with a local fake.
package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// All returns the full adlint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		AliasMut,
		ArenaEscape,
		DeadFunc,
		DetRange,
		LockOrder,
		SyncErr,
	}
}

// ByName resolves a comma-separated analyzer list; unknown names come
// back in the second result.
func ByName(names string) ([]*analysis.Analyzer, []string) {
	var out []*analysis.Analyzer
	var unknown []string
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			unknown = append(unknown, n)
		}
	}
	return out, unknown
}

// pkgBase returns the last path segment of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// namedOf unwraps pointers and aliases down to a named type.
func namedOf(t types.Type) (*types.Named, bool) {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	return n, ok
}

// typeFrom reports whether t (through pointers) is a named type
// declared in a package with the given base name, returning its name.
func typeFrom(t types.Type, base string) (string, bool) {
	n, ok := namedOf(t)
	if !ok || n.Obj().Pkg() == nil {
		return "", false
	}
	if pkgBase(n.Obj().Pkg().Path()) != base {
		return "", false
	}
	return n.Obj().Name(), true
}

// calleeObj resolves the object a call expression invokes: a *types.Func
// for functions and methods, a *types.Builtin for builtins, nil for
// indirect calls through function values.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// methodInfo describes a resolved method callee: the base name of the
// package declaring the receiver type, the receiver type name, and the
// method name.
func methodInfo(obj types.Object) (pkg, recv, name string, ok bool) {
	fn, isFn := obj.(*types.Func)
	if !isFn {
		return "", "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", "", false
	}
	n, isNamed := namedOf(sig.Recv().Type())
	if !isNamed || n.Obj().Pkg() == nil {
		return "", "", "", false
	}
	return pkgBase(n.Obj().Pkg().Path()), n.Obj().Name(), fn.Name(), true
}

// funcPkgBase returns the base name of the package declaring obj
// (functions without receivers), or "" when unknown.
func funcPkgBase(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return pkgBase(obj.Pkg().Path())
}

// returnsError reports whether the callee's final result is error.
func returnsError(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}

// funcBodies visits every function body in the file: declarations and
// literals, each exactly once via the enclosing declaration walk.
func funcBodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Body)
			}
		}
		return true
	})
}

// identObj resolves an identifier expression to its object, unwrapping
// parens; nil for anything else.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}
