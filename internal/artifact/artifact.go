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
// The index is internally sharded by module (see shard.go): Apply
// rebuilds only the shards a delta touches and patches the global
// cross-file views from champion diffs, so warm re-indexing after a
// small edit costs O(dirty shard) instead of O(corpus).
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

// Func is the cached analysis record of one function definition.
type Func struct {
	Decl   *ccast.FuncDecl
	File   *srcfile.File
	Module string
	// Calls holds the raw callee spellings in traversal order: the full
	// (possibly qualified) identifier for direct calls, the member name
	// for method calls.
	Calls []string
	// Callees holds the unqualified forms of Calls, precomputed in the
	// same analysis walk so consumers (the rule engine) never re-derive
	// them. Index-aligned with Calls.
	Callees []string
	// CCN is the Lizard-compatible cyclomatic complexity (identical to
	// metrics.Cyclomatic, computed in the same walk that gathers Calls).
	CCN int
	// Returns is the number of return statements anywhere in the body.
	Returns int

	cfgOnce sync.Once
	cfgG    *cfg.Graph
}

// CFG returns the function's control-flow graph, building it on first use
// and memoizing it. Safe for concurrent callers.
func (f *Func) CFG() *cfg.Graph {
	f.cfgOnce.Do(func() { f.cfgG = cfg.Build(f.Decl) })
	return f.cfgG
}

// Index is the corpus-wide artifact cache shared by the rule engine,
// metrics, architectural analysis, and coverage instrumentation.
type Index struct {
	Units map[string]*ccast.TranslationUnit
	// Paths lists unit paths in sorted order; every deterministic
	// iteration in the pipeline follows this order.
	Paths []string
	// Funcs lists every function definition in path order.
	Funcs []*Func
	// ByName indexes function definitions by unqualified name; multiple
	// definitions with the same name keep the first (path order).
	ByName map[string]*Func
	// GlobalNames maps file-scope variable names to their module (later
	// files overwrite earlier ones, matching the seed rules.NewContext).
	GlobalNames map[string]string
	// lastDef indexes function definitions by unqualified name keeping
	// the LAST (path order) — the architectural FuncModule resolution.
	lastDef map[string]*Func
	// unitFuncs holds each unit's functions in source order.
	unitFuncs map[string][]*Func
	// shards partitions the corpus by module.
	shards     map[string]*Shard
	shardNames []string
	// gen counts refreshes; consumers key derived caches on it.
	gen uint64
	// refreshSeq issues globally-unique shard generations: every shard
	// refresh of any shard draws the next value. A shard that is
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

// ApplyStats describes what one Apply actually touched — the
// observability face of the O(dirty shard) claim.
type ApplyStats struct {
	// Upserts is the number of units (re-)analyzed.
	Upserts int
	// Removals is the number of paths dropped.
	Removals int
	// DirtyShards is the number of shards whose views refreshed (or
	// drained), out of Shards total.
	DirtyShards int
	// Shards is the post-apply shard count.
	Shards int
	// Width is the worker count the parallel shard refresh ran at.
	Width int
}

// LastApply returns the stats of the most recent Apply (zero before
// any). Like Apply itself it must not race with Apply.
func (ix *Index) LastApply() ApplyStats { return ix.lastApply }

// Gen returns the index generation, bumped by every Build/Apply
// refresh. Two reads with equal Gen (and equal Index pointer) observe
// identical cross-file views, so derived caches can key on it. Finer
// invalidation is available per shard (Shard.Gen) and per name
// (ChangesSince).
func (ix *Index) Gen() uint64 { return ix.gen }

// UnitFuncs returns the cached per-unit function list in source order.
func (ix *Index) UnitFuncs(path string) []*Func { return ix.unitFuncs[path] }

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
	fa := &Func{Decl: fn, File: file, Module: module}
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

// analyzeUnit runs the per-function analysis over one translation unit.
func analyzeUnit(tu *ccast.TranslationUnit) []*Func {
	mod := tu.File.ModuleName()
	fns := tu.Funcs()
	fas := make([]*Func, 0, len(fns))
	for _, fn := range fns {
		fas = append(fas, Analyze(fn, tu.File, mod))
	}
	return fas
}

// Build constructs the corpus index. Per-file analysis runs on a worker
// pool sized to GOMAXPROCS; the shard and cross-file views are built
// afterwards in sorted path order so the result is deterministic
// regardless of scheduling.
func Build(units map[string]*ccast.TranslationUnit) *Index {
	ix := &Index{
		Units:     units,
		Paths:     SortedPaths(units),
		unitFuncs: make(map[string][]*Func, len(units)),
		shards:    make(map[string]*Shard),
	}

	perUnit := make([][]*Func, len(ix.Paths))
	par.For(par.Workers(len(ix.Paths)), len(ix.Paths), func(i int) {
		perUnit[i] = analyzeUnit(units[ix.Paths[i]])
	})
	for i, p := range ix.Paths {
		ix.unitFuncs[p] = perUnit[i]
	}

	// Partition into module shards (paths arrive sorted, so each shard's
	// path list is born sorted).
	for _, p := range ix.Paths {
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
	ix.gen++
	return ix
}

// rebuildGlobalViews re-derives the merged cross-file views from scratch
// in global path order — the cold path. Warm deltas never come here;
// they patch the maps via champion diffs instead.
func (ix *Index) rebuildGlobalViews() {
	ix.rebuildFuncs()
	n := len(ix.Funcs)
	ix.ByName = make(map[string]*Func, n)
	ix.lastDef = make(map[string]*Func, n)
	ix.GlobalNames = make(map[string]string, 2*len(ix.Paths))
	for _, fa := range ix.Funcs {
		key := Unqualified(fa.Decl.Name)
		if _, dup := ix.ByName[key]; !dup {
			ix.ByName[key] = fa
		}
		ix.lastDef[key] = fa
	}
	for _, p := range ix.Paths {
		tu := ix.Units[p]
		mod := tu.File.ModuleName()
		for _, vd := range tu.GlobalVars() {
			for _, d := range vd.Names {
				ix.GlobalNames[d.Name] = mod
			}
		}
	}
}

// Apply updates the index in place for a corpus delta: every unit in
// upserts is (re-)analyzed and added or replaced under its path, every
// path in removals is dropped. Only the upserted units are re-walked and
// only the touched shards rebuild their views; all other units keep
// their cached Func records (and memoized CFGs) by pointer, and the
// global cross-file maps are patched for exactly the names whose
// within-shard champions changed. The net cost of a warm Apply is
// O(dirty shard), not O(corpus).
//
// Apply is not safe for concurrent use with readers of the index.
func (ix *Index) Apply(upserts []*ccast.TranslationUnit, removals []string) {
	ix.gen++
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
		delete(ix.Units, p)
		delete(ix.unitFuncs, p)
		sh.removePath(p)
		dirty[sh.Module] = true
		pathsChanged = true
	}

	perUnit := make([][]*Func, len(upserts))
	par.For(par.Workers(len(upserts)), len(upserts), func(i int) {
		perUnit[i] = analyzeUnit(upserts[i])
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
		} else if oldShard.Module != mod {
			oldShard.removePath(p)
			dirty[oldShard.Module] = true
		}
		ix.Units[p] = tu
		ix.unitFuncs[p] = perUnit[i]
		sh := ix.shards[mod]
		if sh == nil {
			sh = &Shard{Module: mod}
			ix.shards[mod] = sh
			ix.shardNames = nil // rebuilt below
		}
		sh.addPath(p)
		dirty[mod] = true
	}

	// Refresh dirty shards in sorted module order (determinism), collect
	// champion diffs, drop emptied shards.
	mods := make([]string, 0, len(dirty))
	for m := range dirty {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	shardSetChanged := ix.shardNames == nil
	// Drain emptied shards and draw generations sequentially in sorted
	// module order, then refresh the surviving dirty shards' views in
	// parallel. Each diff lands in its module's slot, so the post-barrier
	// champion fold below runs in the same deterministic order as the
	// sequential loop it replaces (a zero-value diff is a no-op).
	diffs := make([]championDiff, len(mods))
	var live []*Shard
	var liveAt []int
	for i, m := range mods {
		sh := ix.shards[m]
		if sh == nil {
			continue
		}
		if len(sh.paths) == 0 {
			diffs[i] = sh.drainChampions()
			delete(ix.shards, m)
			shardSetChanged = true
			continue
		}
		sh.assignGen(ix)
		live = append(live, sh)
		liveAt = append(liveAt, i)
	}
	par.For(par.Workers(len(live)), len(live), func(k int) {
		diffs[liveAt[k]] = live[k].refreshViews(ix)
	})
	if shardSetChanged {
		ix.rebuildShardNames()
	}
	ix.applyChampionDiffs(diffs)
	if pathsChanged {
		ix.rebuildPaths()
	}
	ix.rebuildFuncs()
	ix.lastApply = ApplyStats{
		Upserts:     len(upserts),
		Removals:    len(removals),
		DirtyShards: len(mods),
		Shards:      len(ix.shards),
		Width:       par.Workers(len(live)),
	}
}
