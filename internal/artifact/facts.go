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
// variable names. Those facts are precisely the inputs of the name
// lists (shard.go), so an index rebuilt from facts resolves every name
// exactly as the pre-snapshot index did and every cache built over it
// restores warm.
//
// Every Func record carries its facts (it embeds FuncFacts), and the
// index stores each unit's global names, so a unit needs no AST for
// them. Restored units are *stubs*: a translation unit holding only its
// file, whose records carry facts and no declaration (Decl == nil). A
// cold load builds the same stubs (core.Assessor parses each file,
// analyzes it, demotes its records (Func.Demote) and hands them to
// BuildFromRecords), and a delta-parsed unit becomes one once its owner
// has run every walk that needs its body (Demote), so warm state holds
// facts, not ASTs, however it was built. Every consumer that walks real
// ASTs (the fused rule walks, per-file metrics recomputation) only ever
// touches files whose content changed, which arrive freshly parsed.
// Demotion keeps every record: it only clears its Decl and CFG.

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
// or stub. Globals is the index's own list, which it never writes.
func (ix *Index) UnitFacts(path string) UnitFacts {
	uf := UnitFacts{Path: path, Globals: ix.unitGlobals[path]}
	fas := ix.unitFuncs[path]
	uf.Funcs = make([]FuncFacts, len(fas))
	for i, fa := range fas {
		uf.Funcs[i] = fa.FuncFacts
	}
	return uf
}

// globalNames lists a parsed unit's file-scope variable names in
// declaration order.
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
// from persisted facts. The stub holds only the file, and the records
// carry the facts and no declaration, so no walk may visit it. The
// unit's global names are uf.Globals, which the caller hands to
// BuildFromRecords.
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
	return &ccast.TranslationUnit{File: file}, fas
}

// BuildFromRecords constructs an index from pre-analyzed per-unit facts
// — the restore path, and Build's second half: recs holds each unit's
// function records and globals its file-scope variable names, and the
// index keeps both maps. It partitions the units into module shards,
// appends every unit's entries to the name lists in path order
// (addUnit, as Apply inserts them), and stamps every unit with the new
// generation, so an index restored from facts is observationally
// identical to the one that produced them; only the generation counters
// start fresh.
func BuildFromRecords(units map[string]*ccast.TranslationUnit, recs map[string][]*Func, globals map[string][]string) (*Index, error) {
	if len(units) != len(recs) {
		return nil, fmt.Errorf("artifact: %d units vs %d record lists", len(units), len(recs))
	}
	nrecs := 0
	for _, fas := range recs {
		nrecs += len(fas)
	}
	ix := &Index{
		Units:       units,
		Paths:       SortedPaths(units),
		ByName:      make(map[string]*Func, nrecs),
		GlobalNames: make(map[string]string),
		defs:        make(map[string][]*Func, nrecs),
		globals:     make(map[string][]globalDef),
		unitFuncs:   recs,
		unitGlobals: globals,
		unitGen:     make(map[string]uint64, len(units)),
		shards:      make(map[string]*Shard),
	}
	ix.gen++
	for _, p := range ix.Paths {
		if _, ok := recs[p]; !ok {
			return nil, fmt.Errorf("artifact: unit %s has no function records", p)
		}
		ix.unitGen[p] = ix.gen
		// Paths arrive sorted, so each shard's path list is born sorted
		// and every name-list insertion appends.
		mod := units[p].File.ModuleName()
		sh := ix.shards[mod]
		if sh == nil {
			sh = &Shard{Module: mod}
			ix.shards[mod] = sh
		}
		sh.paths = append(sh.paths, p)
		ix.addUnit(p, mod, nil)
	}
	ix.rebuildShardNames()
	for _, m := range ix.shardNames {
		ix.shards[m].assignGen(ix)
	}
	return ix, nil
}

// Demote replaces the units under paths with the stubs a restore would
// build from the same facts (a unit holding only its file), releasing
// their parsed ASTs: each unit's records keep their identity and facts,
// and only lose their declaration and memoized CFG, and its global names
// stay where they are, in the index. So no name list, generation
// (UnitGen included) or change feed entry moves, and every reader
// observes equal facts. Records are cleared on a worker pool; each
// worker writes only its own units' records.
//
// Not safe for concurrent use with readers of the index.
func (ix *Index) Demote(paths []string) {
	par.For(par.Workers(len(paths)), len(paths), func(i int) {
		for _, fa := range ix.unitFuncs[paths[i]] {
			fa.Demote()
		}
	})
	for _, p := range paths {
		ix.Units[p] = &ccast.TranslationUnit{File: ix.Units[p].File}
	}
}
