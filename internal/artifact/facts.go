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
// Every Func record carries its facts (it embeds FuncFacts), so a unit
// needs no AST for them. Restored units are *stubs*: a translation unit
// holding only the file-scope variables, whose records carry facts and
// no declaration (Decl == nil). A parsed unit becomes the same stub once
// its owner has run every walk that needs its body (Demote), so warm
// state holds facts, not ASTs, however it was built. Every consumer that
// walks real ASTs (the fused rule walks, per-file metrics recomputation)
// only ever touches files whose content changed — which arrive freshly
// parsed — or asks the owner to hydrate first (core.Assessor re-parses
// stubs on demand via Rehydrate). Demotion and hydration keep every
// record: they only clear or set its Decl.

// FuncFacts is everything the warm pipeline reads about a function in
// an untouched file: the facts a Func record embeds and a snapshot
// persists.
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
	// CCN is the Lizard-compatible cyclomatic complexity (identical to
	// metrics.Cyclomatic, computed in the same walk that gathers Calls).
	CCN int
	// Returns is the number of return statements anywhere in the body.
	Returns int
	// Calls holds the raw callee spellings in traversal order: the full
	// (possibly qualified) identifier for direct calls, the member name
	// for method calls.
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

// UnitFacts extracts the persistent facts of one indexed unit, parsed
// or stub.
func (ix *Index) UnitFacts(path string) UnitFacts {
	uf := UnitFacts{Path: path, Globals: globalNames(ix.Units[path])}
	fas := ix.unitFuncs[path]
	uf.Funcs = make([]FuncFacts, len(fas))
	for i, fa := range fas {
		uf.Funcs[i] = fa.FuncFacts
	}
	return uf
}

// globalNames lists a unit's file-scope variable names in declaration
// order.
func globalNames(tu *ccast.TranslationUnit) []string {
	var out []string
	for _, vd := range tu.GlobalVars() {
		for _, d := range vd.Names {
			out = append(out, d.Name)
		}
	}
	return out
}

// UnitFromFacts builds a stub translation unit and its function records
// from persisted facts. The records carry the facts and no declaration,
// so any consumer that needs a real AST must hydrate (re-parse) first.
//
// Restore builds the whole corpus in one pass, so the records and their
// callee lists come from per-unit backing arrays instead of one
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
		fa := &fab[i]
		*fa = Func{FuncFacts: uf.Funcs[i], File: file, Module: module}
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
	return stubUnit(file, uf.Globals), fas
}

// stubUnit builds the stub translation unit of file, for restore
// (UnitFromFacts) and demotion (Index.Demote) alike: its file-scope
// variables only, from one backing array per node type. Function facts
// live on the records, not in the unit.
func stubUnit(file *srcfile.File, globals []string) *ccast.TranslationUnit {
	tu := &ccast.TranslationUnit{File: file}
	if len(globals) > 0 {
		tu.Decls = make([]ccast.Decl, len(globals))
		vds := make([]ccast.VarDecl, len(globals))
		dls := make([]ccast.Declarator, len(globals))
		for i, g := range globals {
			dls[i] = ccast.Declarator{Name: g}
			vds[i] = ccast.VarDecl{Global: true, Names: []*ccast.Declarator{&dls[i]}}
			tu.Decls[i] = &vds[i]
		}
	}
	return tu
}

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

// Rehydrate installs tu, a fresh parse of a stub unit's unchanged
// source, and points each of the unit's records at its parsed
// declaration: Demote run in reverse. It runs no analysis and creates no
// record, so every record keeps its identity and its facts, and no
// shard view, champion map, generation (UnitGen included) or change
// feed entry moves. Hydration is only legal when the file content is
// unchanged since the facts were extracted; a parse whose function list
// disagrees with the records in count or name panics.
//
// Not safe for concurrent use with readers of the index.
func (ix *Index) Rehydrate(tu *ccast.TranslationUnit) {
	p := tu.File.Path
	fas, fns := ix.unitFuncs[p], tu.Funcs()
	if len(fns) != len(fas) {
		panic(fmt.Sprintf("artifact: rehydrating %s: %d functions parsed, %d recorded", p, len(fns), len(fas)))
	}
	for i, fn := range fns {
		if fn.Name != fas[i].Name {
			panic(fmt.Sprintf("artifact: rehydrating %s: function %d parsed as %q, recorded as %q", p, i, fn.Name, fas[i].Name))
		}
		fas[i].Decl = fn
	}
	ix.Units[p] = tu
}

// Demote replaces the units under paths with the stubs a restore would
// build from the same facts (stubUnit), releasing their parsed ASTs:
// each unit's records keep their identity and facts, and only lose
// their declaration and memoized CFG. So no shard view, champion map,
// generation (UnitGen included) or change feed entry moves, and every
// reader observes equal facts. Stubs are built on a worker pool; each
// writes only its own unit's records.
//
// Not safe for concurrent use with readers of the index.
func (ix *Index) Demote(paths []string) {
	stubs := make([]*ccast.TranslationUnit, len(paths))
	par.For(par.Workers(len(paths)), len(paths), func(i int) {
		p := paths[i]
		tu := ix.Units[p]
		stubs[i] = stubUnit(tu.File, globalNames(tu))
		for _, fa := range ix.unitFuncs[p] {
			fa.Decl, fa.cfgOnce, fa.cfgG = nil, sync.Once{}, nil
		}
	})
	for i, p := range paths {
		ix.Units[p] = stubs[i]
	}
}
