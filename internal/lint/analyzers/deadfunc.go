package analyzers

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
)

// DeadFunc flags unexported functions and methods that nothing in their
// package's non-test files refers to, so code kept only for removed
// callers cannot creep back in. A reference is any use of the function
// outside its own declaration: a call, a function or method value, or a
// method expression; uses of a generic function's instantiations count
// for the generic function (types.Func.Origin). An unexported method is
// also used when an interface declared in the package names it, since
// only such an interface can call it dynamically. Exported functions,
// main and init are never flagged.
var DeadFunc = &analysis.Analyzer{
	Name: "deadfunc",
	Doc:  "flags unexported functions and methods with no reference in their package's non-test files",
	Run:  runDeadFunc,
}

func runDeadFunc(pass *analysis.Pass) error {
	used := make(map[*types.Func]bool)
	ifaceNames := make(map[string]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			// A use inside the function's own declaration (recursion) is
			// not a reference from the rest of the package.
			var self types.Object
			if fd, ok := d.(*ast.FuncDecl); ok {
				self = pass.TypesInfo.Defs[fd.Name]
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if fn, ok := pass.TypesInfo.Uses[n].(*types.Func); ok && fn.Origin() != self {
						used[fn.Origin()] = true
					}
				case *ast.InterfaceType:
					if iface, ok := pass.TypesInfo.TypeOf(n).(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							ifaceNames[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.IsExported() || fd.Name.Name == "_" ||
				(fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init")) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || used[fn] || (fd.Recv != nil && ifaceNames[fd.Name.Name]) {
				continue
			}
			what := "func " + fd.Name.Name
			if fd.Recv != nil {
				what = "method " + fd.Name.Name
			}
			pass.Reportf(fd.Name.Pos(), "%s is never used in its package's non-test files", what)
		}
	}
	return nil
}
