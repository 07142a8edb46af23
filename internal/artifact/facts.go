package artifact

import (
	"fmt"
	"sync"

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
// statement bodies. A parsed unit becomes the same stub once its owner
// has run every walk that needs its body (Demote), so warm state holds
// facts, not ASTs, however it was built. Every consumer that walks real
// ASTs (the fused rule walks, per-file metrics recomputation) only ever
// touches files whose content changed — which arrive freshly parsed —
// or asks the owner to hydrate first (core.Assessor re-parses stubs on
// demand via Rehydrate).

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
// Restore fabricates the whole corpus in one pass, so the records and
// their callee lists come from per-unit backing arrays instead of one
// allocation per record.
func UnitFromFacts(file *srcfile.File, uf UnitFacts) (*ccast.TranslationUnit, []*Func) {
	module := file.ModuleName()
	fas := make([]*Func, len(uf.Funcs))
	fab := make([]Func, len(uf.Funcs))
	nCalls := 0
	for i := range uf.Funcs {
		nCalls += len(uf.Funcs[i].Calls)
	}
	callees := make([]string, nCalls)
	for i := range uf.Funcs {
		ft := &uf.Funcs[i]
		fa := &fab[i]
		*fa = Func{
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
	return stubUnit(file, uf, fas), fas
}

// stubUnit is the one place stubs are fabricated, for restore
// (UnitFromFacts) and demotion (Index.Demote) alike. It fabricates the
// unit's stub — its file-scope variables only — and points each record
// fas[i] at a fabricated declaration of uf.Funcs[i]: name, voidness,
// line and parameter count, with no body. The nodes come from per-unit
// backing arrays instead of one allocation per node.
func stubUnit(file *srcfile.File, uf UnitFacts, fas []*Func) *ccast.TranslationUnit {
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
	fds := make([]ccast.FuncDecl, len(uf.Funcs))
	nParams := 0
	for i := range uf.Funcs {
		nParams += uf.Funcs[i].Params
	}
	params := make([]ccast.Param, nParams)
	pptrs := make([]*ccast.Param, nParams)
	for k := range params {
		pptrs[k] = &params[k]
	}
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
		fas[i].Decl = fd
	}
	return tu
}

// AnalyzeUnit runs the per-function analysis walk over one parsed
// translation unit, returning its Func records in source order (the
// unit-granular face of Build, exported for hydration).
func AnalyzeUnit(tu *ccast.TranslationUnit) []*Func { return analyzeUnit(tu) }

// BuildFromRecords constructs an index from pre-analyzed per-unit
// records — the restore path, and Build's second half. It partitions the
// units into module shards, rebuilds the per-shard views and global
// cross-file maps, and stamps every unit with the new generation, so an
// index restored from facts is observationally identical to the one that
// produced them; only the generation counters start fresh.
func BuildFromRecords(units map[string]*ccast.TranslationUnit, recs map[string][]*Func) (*Index, error) {
	if len(units) != len(recs) {
		return nil, fmt.Errorf("artifact: %d units vs %d record lists", len(units), len(recs))
	}
	ix := &Index{
		Units:     units,
		Paths:     SortedPaths(units),
		unitFuncs: recs,
		unitGen:   make(map[string]uint64, len(units)),
		shards:    make(map[string]*Shard),
	}
	ix.gen++
	for _, p := range ix.Paths {
		if _, ok := recs[p]; !ok {
			return nil, fmt.Errorf("artifact: unit %s has no function records", p)
		}
		ix.unitGen[p] = ix.gen
		// Paths arrive sorted, so each shard's path list is born sorted.
		mod := units[p].File.ModuleName()
		sh := ix.shards[mod]
		if sh == nil {
			sh = &Shard{Module: mod}
			ix.shards[mod] = sh
		}
		sh.paths = append(sh.paths, p)
	}
	ix.rebuildShardNames()
	// Generations are drawn sequentially in sorted module order, then the
	// shard views — which read only the per-unit maps frozen above —
	// rebuild on a worker pool.
	for _, m := range ix.shardNames {
		ix.shards[m].assignGen(ix)
	}
	names := ix.shardNames
	par.For(par.Workers(len(names)), len(names), func(i int) {
		ix.shards[names[i]].rebuildViews(ix)
	})
	ix.rebuildGlobalViews()
	return ix, nil
}

// Rehydrate replaces one unit's stub AST and fabricated records with a
// freshly parsed unit and its real analysis records. It deliberately
// leaves shard views, generations (UnitGen included), and the change
// feed untouched:
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

// Demote replaces the units under paths with the stubs a restore would
// fabricate from the same facts (stubUnit), releasing their parsed
// ASTs: it is Rehydrate run in reverse, under the same contract. Each
// unit's Func records keep their identity — only their declarations
// become fabricated ones and their memoized CFGs are dropped — so no
// shard view, champion map, generation (UnitGen included) or change
// feed entry moves, and every reader observes equal facts. Stubs are
// fabricated on a worker pool; each writes only its own unit's records.
//
// Not safe for concurrent use with readers of the index.
func (ix *Index) Demote(paths []string) {
	stubs := make([]*ccast.TranslationUnit, len(paths))
	par.For(par.Workers(len(paths)), len(paths), func(i int) {
		p := paths[i]
		fas := ix.unitFuncs[p]
		stubs[i] = stubUnit(ix.Units[p].File, ix.UnitFacts(p), fas)
		for _, fa := range fas {
			fa.cfgOnce, fa.cfgG = sync.Once{}, nil
		}
	})
	for i, p := range paths {
		ix.Units[p] = stubs[i]
	}
}
