package artifact

import (
	"fmt"

	"repro/internal/ccast"
	"repro/internal/par"
	"repro/internal/srcfile"
)

// This file is the persistence boundary of the artifact cache. A corpus
// snapshot (internal/store) does not serialize ASTs — re-deriving them
// from source is exactly the cold parse the snapshot exists to avoid.
// It serializes *facts*: for every function the handful of fields the
// warm pipeline actually reads off untouched files (name, return
// voidness, declaration line, parameter count, complexity, return
// count, raw callee spellings) and for every unit its file-scope
// variable names. Those facts are precisely the inputs of the shard
// views and cross-file maps (shard.go), so an index rebuilt from facts
// resolves every name exactly as the pre-snapshot index did and every
// cache built over it restores warm.
//
// Restored units are *stubs*: fabricated fact-carrying nodes with no
// statement bodies. Every consumer that walks real ASTs (the fused rule
// walks, per-file metrics recomputation) only ever touches files whose
// content changed — which arrive freshly parsed — or asks the owner to
// hydrate first (core.Assessor re-parses stubs on demand via Rehydrate).

// FuncFacts is the serializable projection of a Func record: everything
// the warm pipeline reads about a function in an untouched file.
type FuncFacts struct {
	// Name is the qualified spelling as written ("Detector::Detect").
	Name string
	// Void records Ret == nil || Ret.IsVoid() — the only return fact
	// cross-file consumers (DefensiveRule, the change feed) use.
	Void bool
	// Line is the declaration's starting line.
	Line int
	// Params is the parameter count (architectural interface metrics).
	Params int
	// CCN and Returns mirror the Func counters.
	CCN     int
	Returns int
	// Calls holds the raw callee spellings in traversal order.
	Calls []string
}

// UnitFacts is the serializable projection of one translation unit.
type UnitFacts struct {
	Path string
	// Funcs lists the unit's function records in source order.
	Funcs []FuncFacts
	// Globals lists the unit's file-scope variable names in declaration
	// order (flattened across multi-declarator statements, matching the
	// iteration order of TranslationUnit.GlobalVars).
	Globals []string
}

// FactsOf extracts the persistent facts from a Func record. It works on
// fabricated records too (snapshotting a restored assessor round-trips).
func FactsOf(fa *Func) FuncFacts {
	return FuncFacts{
		Name:    fa.Decl.Name,
		Void:    fa.Decl.Ret == nil || fa.Decl.Ret.IsVoid(),
		Line:    fa.Decl.Span().Start.Line,
		Params:  len(fa.Decl.Params),
		CCN:     fa.CCN,
		Returns: fa.Returns,
		Calls:   fa.Calls,
	}
}

// UnitFacts extracts the persistent facts of one indexed unit.
func (ix *Index) UnitFacts(path string) UnitFacts {
	uf := UnitFacts{Path: path}
	fas := ix.unitFuncs[path]
	uf.Funcs = make([]FuncFacts, len(fas))
	for i, fa := range fas {
		uf.Funcs[i] = FactsOf(fa)
	}
	for _, vd := range ix.Units[path].GlobalVars() {
		for _, d := range vd.Names {
			uf.Globals = append(uf.Globals, d.Name)
		}
	}
	return uf
}

// stubRet is the shared non-void placeholder return type of fabricated
// declarations. Stubs are read-only by contract (consumers needing a
// real AST hydrate first), so one immutable value serves all of them.
var stubRet = &ccast.Type{Name: "int"}

// UnitFromFacts fabricates a stub translation unit and its function
// records from persisted facts. The stub carries exactly the facts the
// warm pipeline reads — fabricated declarations have no bodies, so any
// consumer that needs a real AST must hydrate (re-parse) first.
//
// Restore fabricates the whole corpus in one pass, so the per-function
// nodes come from per-unit backing arrays instead of one allocation
// per node.
func UnitFromFacts(file *srcfile.File, uf UnitFacts) (*ccast.TranslationUnit, []*Func) {
	tu := &ccast.TranslationUnit{File: file}
	if len(uf.Globals) > 0 {
		tu.Decls = make([]ccast.Decl, 0, len(uf.Globals))
		vds := make([]ccast.VarDecl, len(uf.Globals))
		dls := make([]ccast.Declarator, len(uf.Globals))
		for i, g := range uf.Globals {
			dls[i] = ccast.Declarator{Name: g}
			vds[i] = ccast.VarDecl{Global: true, Names: []*ccast.Declarator{&dls[i]}}
			tu.Decls = append(tu.Decls, &vds[i])
		}
	}
	module := file.ModuleName()
	fas := make([]*Func, len(uf.Funcs))
	fab := make([]Func, len(uf.Funcs))
	fds := make([]ccast.FuncDecl, len(uf.Funcs))
	nParams, nCalls := 0, 0
	for i := range uf.Funcs {
		nParams += uf.Funcs[i].Params
		nCalls += len(uf.Funcs[i].Calls)
	}
	params := make([]ccast.Param, nParams)
	pptrs := make([]*ccast.Param, nParams)
	for k := range params {
		pptrs[k] = &params[k]
	}
	callees := make([]string, nCalls)
	for i := range uf.Funcs {
		ft := &uf.Funcs[i]
		fd := &fds[i]
		fd.Name = ft.Name
		if !ft.Void {
			fd.Ret = stubRet
		}
		if ft.Params > 0 {
			fd.Params, pptrs = pptrs[:ft.Params:ft.Params], pptrs[ft.Params:]
		}
		fd.SetSpan(srcfile.Span{
			Start: srcfile.Pos{Line: ft.Line, Col: 1},
			End:   srcfile.Pos{Line: ft.Line, Col: 1},
		})
		fa := &fab[i]
		*fa = Func{
			Decl:    fd,
			File:    file,
			Module:  module,
			Calls:   ft.Calls,
			CCN:     ft.CCN,
			Returns: ft.Returns,
		}
		if len(fa.Calls) > 0 {
			cs := callees[:len(fa.Calls):len(fa.Calls)]
			callees = callees[len(fa.Calls):]
			for k, raw := range fa.Calls {
				cs[k] = Unqualified(raw)
			}
			fa.Callees = cs
		}
		fas[i] = fa
	}
	return tu, fas
}

// AnalyzeUnit runs the per-function analysis walk over one parsed
// translation unit, returning its Func records in source order (the
// unit-granular face of Build, exported for hydration).
func AnalyzeUnit(tu *ccast.TranslationUnit) []*Func { return analyzeUnit(tu) }

// BuildFromRecords constructs an index from pre-analyzed per-unit
// records instead of walking the units — the restore path. The shard
// partition, per-shard views, and global cross-file maps are recomputed
// exactly as Build computes them, so an index restored
// from facts is observationally identical to the one that produced
// them; only the generation counters start fresh.
func BuildFromRecords(units map[string]*ccast.TranslationUnit, recs map[string][]*Func) (*Index, error) {
	if len(units) != len(recs) {
		return nil, fmt.Errorf("artifact: %d units vs %d record lists", len(units), len(recs))
	}
	ix := &Index{
		Units:     units,
		Paths:     SortedPaths(units),
		unitFuncs: recs,
		shards:    make(map[string]*Shard),
	}
	for _, p := range ix.Paths {
		if _, ok := recs[p]; !ok {
			return nil, fmt.Errorf("artifact: unit %s has no function records", p)
		}
		mod := units[p].File.ModuleName()
		sh := ix.shards[mod]
		if sh == nil {
			sh = &Shard{Module: mod}
			ix.shards[mod] = sh
		}
		sh.paths = append(sh.paths, p)
	}
	ix.rebuildShardNames()
	// Same parallel scheme as Build: generations drawn sequentially in
	// sorted module order, shard views rebuilt on a worker pool.
	for _, m := range ix.shardNames {
		ix.shards[m].assignGen(ix)
	}
	names := ix.shardNames
	par.For(par.Workers(len(names)), len(names), func(i int) {
		ix.shards[names[i]].rebuildViews(ix)
	})
	ix.rebuildGlobalViews()
	ix.gen++
	return ix, nil
}

// Rehydrate replaces one unit's stub AST and fabricated records with a
// freshly parsed unit and its real analysis records. It deliberately
// leaves shard views, generations, and the change feed untouched:
// hydration is only legal when the file content is unchanged since the
// facts were extracted, so every fact is identical and downstream
// caches stay valid. Champion maps keep the old records by pointer
// until the shard's next refresh; old and new records carry equal
// facts, so every consumer observes identical output either way.
//
// Not safe for concurrent use with readers of the index.
func (ix *Index) Rehydrate(tu *ccast.TranslationUnit, recs []*Func) {
	p := tu.File.Path
	ix.Units[p] = tu
	ix.unitFuncs[p] = recs
}
