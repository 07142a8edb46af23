// Package artifact is the shared per-function analysis cache of the
// assessment pipeline. The seed pipeline re-derived the same facts about
// every function several times over: rules.NewContext walked each body for
// callees, metrics.Analyze walked it twice more for cyclomatic complexity
// and return counts, and metrics.AnalyzeArch walked it again for the
// cross-module call inventory. Build performs ONE walk per function body
// (executed in parallel across files) and records every fact those
// consumers need; control-flow graphs are built lazily and memoized so
// CFG-based consumers (coverage instrumentation) also construct each
// graph exactly once.
//
// The index partitions the files into module shards and resolves
// cross-file names from one list per name (see shard.go): Apply edits
// only the list entries of the units a delta changes, so warm
// re-indexing after a small edit costs O(changed units) instead of
// O(corpus).
package artifact

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/ccast"
	"repro/internal/cfg"
	"repro/internal/par"
	"repro/internal/srcfile"
)

// Func is the cached analysis record of one function definition. Its
// facts (FuncFacts) are the record's one copy of what the warm pipeline
// reads about the function, in memory and in a snapshot alike; they
// hold whether or not the owning unit is parsed.
type Func struct {
	FuncFacts
	// Decl is the parsed declaration, set only while the owning unit
	// holds a parsed AST. A stub unit's records (restored, or demoted
	// by Index.Demote) have none. Only walks over a parsed unit's own
	// bodies or spans read it.
	Decl   *ccast.FuncDecl
	File   *srcfile.File
	Module string
	// Callees holds the unqualified forms of Calls, precomputed in the
	// same analysis walk so consumers (the rule engine) never re-derive
	// them. Index-aligned with Calls.
	Callees []string

	cfgOnce sync.Once
	cfgG    *cfg.Graph
}

// CFG returns the function's control-flow graph, building it on first use
// and memoizing it. Safe for concurrent callers. It runs on a parsed
// unit's records only: the graph is built from Decl's body.
func (f *Func) CFG() *cfg.Graph {
	f.cfgOnce.Do(func() { f.cfgG = cfg.Build(f.Decl) })
	return f.cfgG
}

// Demote drops everything of the record that points into its unit's
// AST, the declaration and the memoized CFG, and keeps its facts: the
// record a stub unit carries.
func (f *Func) Demote() { f.Decl, f.cfgOnce, f.cfgG = nil, sync.Once{}, nil }

// Index is the corpus-wide artifact cache shared by the rule engine,
// metrics, architectural analysis, and coverage instrumentation.
type Index struct {
	Units map[string]*ccast.TranslationUnit
	// Paths lists unit paths in sorted order; every deterministic
	// iteration in the pipeline follows this order.
	Paths []string
	// ByName indexes function definitions by unqualified name; multiple
	// definitions with the same name keep the first (path order, then
	// source order).
	ByName map[string]*Func
	// GlobalNames maps file-scope variable names to the module of the
	// last file declaring them (path order, matching the seed
	// rules.NewContext).
	GlobalNames map[string]string
	// defs lists every definition of each unqualified function name in
	// path order, then source order; globals lists every declaration of
	// each file-scope variable name in path order (shard.go).
	defs    map[string][]*Func
	globals map[string][]globalDef
	// unitFuncs holds each unit's functions in source order, and
	// unitGlobals its file-scope variable names in declaration order:
	// the unit's facts, parsed or stub.
	unitFuncs   map[string][]*Func
	unitGlobals map[string][]string
	// unitGen holds, per path, the index generation at which the unit was
	// last built, restored or upserted (UnitGen).
	unitGen map[string]uint64
	// shards partitions the corpus by module.
	shards     map[string]*Shard
	shardNames []string
	// gen counts Builds and Applies; consumers key derived caches on it.
	gen uint64
	// refreshSeq issues globally-unique shard generations: every
	// generation any shard draws is the next value. A shard that is
	// removed and later re-created can therefore never repeat a
	// generation its predecessor handed out, so (module, Shard.Gen)
	// keys in downstream caches cannot collide across shard lifetimes.
	refreshSeq uint64
	// lastApply describes the most recent Apply (observability).
	lastApply ApplyStats
	// feed is the change feed (feed.go): the names whose rule-visible
	// facts the recent Applies moved, oldest first. Entries of
	// generations up to feedFloor may have been dropped.
	feed      []NameChange
	feedFloor uint64
}

// ApplyStats describes what one Apply touched.
type ApplyStats struct {
	// Upserts is the number of units (re-)analyzed.
	Upserts int
	// Removals is the number of paths dropped.
	Removals int
	// DirtyShards is the number of shards whose generation moved,
	// counting a shard that emptied and was dropped, out of Shards
	// total.
	DirtyShards int
	// Shards is the post-apply shard count.
	Shards int
}

// LastApply returns the stats of the most recent Apply (zero before
// any). Like Apply itself it must not race with Apply.
func (ix *Index) LastApply() ApplyStats { return ix.lastApply }

// Gen returns the index generation, bumped by every Build and
// Apply. Two reads with equal Gen (and equal Index pointer) observe
// identical cross-file views, so derived caches can key on it. Finer
// invalidation is available per shard (Shard.Gen) and per name
// (ChangesSince).
func (ix *Index) Gen() uint64 { return ix.gen }

// UnitFuncs returns the cached per-unit function list in source order.
func (ix *Index) UnitFuncs(path string) []*Func { return ix.unitFuncs[path] }

// UnitGen returns the index generation at which the unit under path was
// last built, restored or upserted by Apply (0 for a path not indexed).
// Demote leaves it alone. Within one index, equal (path, UnitGen)
// pairs denote the same unit content, so per-file caches key on it.
func (ix *Index) UnitGen(path string) uint64 { return ix.unitGen[path] }

// Unqualified strips namespace/class qualifiers from a name.
func Unqualified(name string) string {
	if i := strings.LastIndex(name, "::"); i >= 0 {
		return name[i+2:]
	}
	return name
}

// CalleeName extracts the raw callee spelling from a call expression: the
// full identifier spelling for direct calls, the member name for method
// calls, "" otherwise.
func CalleeName(c *ccast.Call) string {
	switch f := c.Fun.(type) {
	case *ccast.Ident:
		return f.Name
	case *ccast.Member:
		return f.Name
	default:
		return ""
	}
}

// Analyze computes the artifact record for one function definition with a
// single traversal of its body.
func Analyze(fn *ccast.FuncDecl, file *srcfile.File, module string) *Func {
	fa := &Func{Decl: fn, File: file, Module: module, FuncFacts: FuncFacts{
		Name:   fn.Name,
		Void:   fn.Ret == nil || fn.Ret.IsVoid(),
		Line:   fn.Span().Start.Line,
		Params: len(fn.Params),
	}}
	if fn.Body == nil {
		return fa
	}
	ccn := 1
	ccast.Walk(fn.Body, func(n ccast.Node) bool {
		switch n := n.(type) {
		case *ccast.If, *ccast.While, *ccast.DoWhile, *ccast.Cond:
			ccn++
		case *ccast.For:
			ccn++
		case *ccast.Switch:
			for _, c := range n.Cases {
				ccn += len(c.Values)
			}
		case *ccast.Binary:
			if n.Op == "&&" || n.Op == "||" {
				ccn++
			}
		case *ccast.Return:
			fa.Returns++
		case *ccast.Call:
			if name := CalleeName(n); name != "" {
				fa.Calls = append(fa.Calls, name)
			}
		}
		return true
	})
	fa.CCN = ccn
	if len(fa.Calls) > 0 {
		fa.Callees = make([]string, len(fa.Calls))
		for i, raw := range fa.Calls {
			fa.Callees[i] = Unqualified(raw)
		}
	}
	return fa
}

// SortedPaths returns the unit paths in sorted order.
func SortedPaths(units map[string]*ccast.TranslationUnit) []string {
	paths := make([]string, 0, len(units))
	for p := range units {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// AnalyzeUnit runs the per-function analysis over one translation unit
// and lists its file-scope variable names: the unit's records and
// globals, as Build and Apply derive them, for BuildFromRecords.
func AnalyzeUnit(tu *ccast.TranslationUnit) ([]*Func, []string) {
	mod := tu.File.ModuleName()
	fns := tu.Funcs()
	fas := make([]*Func, 0, len(fns))
	for _, fn := range fns {
		fas = append(fas, Analyze(fn, tu.File, mod))
	}
	return fas, globalNames(tu)
}

// Build constructs the corpus index. Per-file analysis runs on a worker
// pool sized to GOMAXPROCS; BuildFromRecords then builds the shards and
// the name lists in sorted path order, so the result is deterministic
// regardless of scheduling.
func Build(units map[string]*ccast.TranslationUnit) *Index {
	paths := SortedPaths(units)
	perUnit := make([][]*Func, len(paths))
	perGlobals := make([][]string, len(paths))
	par.For(par.Workers(len(paths)), len(paths), func(i int) {
		perUnit[i], perGlobals[i] = AnalyzeUnit(units[paths[i]])
	})
	recs := make(map[string][]*Func, len(paths))
	globals := make(map[string][]string, len(paths))
	for i, p := range paths {
		recs[p], globals[p] = perUnit[i], perGlobals[i]
	}
	ix, _ := BuildFromRecords(units, recs, globals) // one record list per unit: cannot fail
	return ix
}

// Apply updates the index in place for a corpus delta: every unit in
// upserts is (re-)analyzed and added or replaced under its path, every
// path in removals is dropped. Only the upserted units are walked; all
// other units keep their Func records (and memoized CFGs) by pointer.
// The name lists lose the entries of the dropped and replaced units and
// gain those of the upserted ones (dropUnit, addUnit: the code a cold
// build runs), and only the names those entries carry are re-resolved
// and checked for the change feed. The shards of the changed units draw
// new generations. The cost of a warm Apply is O(changed units), plus
// the rebuild of Paths when a path is added or removed.
//
// Apply is not safe for concurrent use with readers of the index.
func (ix *Index) Apply(upserts []*ccast.TranslationUnit, removals []string) {
	ix.gen++
	t := make(touched)
	dirty := make(map[string]bool)
	pathsChanged := false

	for _, p := range removals {
		// The owning shard is found by membership, not via Units[p]:
		// callers sharing the Units map (core.Assessor) may already have
		// deleted the entry by the time Apply runs.
		sh := ix.shardContaining(p)
		if sh == nil {
			continue
		}
		ix.dropUnit(p, t)
		delete(ix.Units, p)
		delete(ix.unitFuncs, p)
		delete(ix.unitGlobals, p)
		delete(ix.unitGen, p)
		sh.removePath(p)
		dirty[sh.Module] = true
		pathsChanged = true
	}

	perUnit := make([][]*Func, len(upserts))
	perGlobals := make([][]string, len(upserts))
	par.For(par.Workers(len(upserts)), len(upserts), func(i int) {
		perUnit[i], perGlobals[i] = AnalyzeUnit(upserts[i])
	})
	for i, tu := range upserts {
		p := tu.File.Path
		mod := tu.File.ModuleName()
		// Adds and module moves are detected against the shards' own
		// path lists, never against Units[p] or the previous unit's
		// File: core.Assessor shares the Units map (and the canonical
		// *File, mutated in place by FileSet.Add) with the index, so
		// both already show the post-delta state by the time Apply
		// runs. Shard membership is Apply's private bookkeeping.
		if oldShard := ix.shardContaining(p); oldShard == nil {
			pathsChanged = true
		} else {
			ix.dropUnit(p, t)
			if oldShard.Module != mod {
				oldShard.removePath(p)
				dirty[oldShard.Module] = true
			}
		}
		ix.Units[p] = tu
		ix.unitFuncs[p], ix.unitGlobals[p], ix.unitGen[p] = perUnit[i], perGlobals[i], ix.gen
		ix.addUnit(p, mod, t)
		sh := ix.shards[mod]
		if sh == nil {
			sh = &Shard{Module: mod}
			ix.shards[mod] = sh
			ix.shardNames = nil // rebuilt below
		}
		sh.addPath(p)
		dirty[mod] = true
	}

	// Draw the dirty shards' generations in sorted module order
	// (determinism) and drop the emptied ones.
	mods := make([]string, 0, len(dirty))
	for m := range dirty {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	shardSetChanged := ix.shardNames == nil
	for _, m := range mods {
		sh := ix.shards[m]
		if len(sh.paths) == 0 {
			delete(ix.shards, m)
			shardSetChanged = true
			continue
		}
		sh.assignGen(ix)
	}
	if shardSetChanged {
		ix.rebuildShardNames()
	}
	if pathsChanged {
		ix.rebuildPaths()
	}
	ix.recordChanges(t.changes(ix))
	ix.lastApply = ApplyStats{
		Upserts:     len(upserts),
		Removals:    len(removals),
		DirtyShards: len(mods),
		Shards:      len(ix.shards),
	}
}
