package artifact

import "sort"

// This file implements the sharded corpus store underneath the Index.
// Shards are keyed by module (srcfile.File.ModuleName): each shard owns
// its sorted path list, its function records in path order, and the
// within-shard champions of every cross-file view (first-definition-wins
// ByName, last-definition-wins FuncModule, last-definition-wins global
// variable names). A corpus delta rebuilds only the dirty shards'
// views — the per-unit analysis records of untouched files are reused by
// pointer exactly as before — and the global views are patched from the
// champion diffs, so a warm Apply costs O(dirty shard), not O(corpus).
//
// Apply records, for every name it re-resolves, which rule-visible
// fact moved (feed.go), so consumers invalidate per name instead of
// per corpus.

// globalDef records one shard's champion for a file-scope variable name:
// the defining file (the one with the greatest path — later files
// overwrite earlier ones, matching the seed rules.NewContext) and its
// module.
type globalDef struct {
	path   string
	module string
}

// Shard is the per-module partition of the index.
type Shard struct {
	// Module is the shard key.
	Module string

	// paths lists the shard's unit paths in sorted order.
	paths []string
	// funcs lists the shard's function records in path order.
	funcs []*Func
	// byName holds the shard's first-definition-wins champions by
	// unqualified name (minimal path, then source order).
	byName map[string]*Func
	// lastByName holds the last-definition-wins champions (maximal path,
	// then source order) backing the architectural FuncModule view.
	lastByName map[string]*Func
	// globals holds the shard's file-scope variable champions.
	globals map[string]globalDef

	// gen counts shard refreshes; derived caches key on it.
	gen uint64
}

// Gen returns the shard generation, bumped by every refresh that
// touches the shard. Two reads with equal (shard pointer, Gen) observe
// identical shard-local views.
func (sh *Shard) Gen() uint64 { return sh.gen }

// Paths returns the shard's unit paths in sorted order. The slice must
// not be mutated.
func (sh *Shard) Paths() []string { return sh.paths }

// Funcs returns the shard's function records in path order. The slice
// must not be mutated.
func (sh *Shard) Funcs() []*Func { return sh.funcs }

// Len returns the number of files in the shard.
func (sh *Shard) Len() int { return len(sh.paths) }

// addPath inserts p into the sorted path list (no-op when present).
func (sh *Shard) addPath(p string) {
	i := sort.SearchStrings(sh.paths, p)
	if i < len(sh.paths) && sh.paths[i] == p {
		return
	}
	sh.paths = append(sh.paths, "")
	copy(sh.paths[i+1:], sh.paths[i:])
	sh.paths[i] = p
}

// removePath deletes p from the sorted path list (no-op when absent).
func (sh *Shard) removePath(p string) {
	i := sort.SearchStrings(sh.paths, p)
	if i >= len(sh.paths) || sh.paths[i] != p {
		return
	}
	sh.paths = append(sh.paths[:i], sh.paths[i+1:]...)
}

// championDiff collects the names whose within-shard champion changed
// across a refresh; the index re-resolves exactly those names globally.
// Each slice is sorted so re-resolution runs in a deterministic order
// even though the names are gathered from map-keyed state.
type championDiff struct {
	byName  []string
	lastDef []string
	globals []string
}

// refresh rebuilds the shard's views from the index's per-unit records
// in O(shard) and returns the champion diff against the previous state.
// Function bodies are never re-walked here; the per-unit Func records
// (and their memoized CFGs) are reused by pointer. Generations come
// from the index-wide refreshSeq so they are unique across shards and
// across shard lifetimes.
func (sh *Shard) refresh(ix *Index) championDiff {
	sh.assignGen(ix)
	return sh.refreshViews(ix)
}

// refreshViews is refresh after the generation has already been drawn
// via assignGen. Distinct shards may run refreshViews concurrently: it
// reads only the index's shared per-unit maps (not mutated during the
// parallel region) and writes only shard-local state.
func (sh *Shard) refreshViews(ix *Index) championDiff {
	oldByName, oldLast, oldGlobals := sh.byName, sh.lastByName, sh.globals
	sh.rebuildViews(ix)

	var diff championDiff
	diff.byName = diffFuncChampions(oldByName, sh.byName)
	diff.lastDef = diffFuncChampions(oldLast, sh.lastByName)
	for name, def := range sh.globals {
		if old, ok := oldGlobals[name]; !ok || old != def {
			diff.globals = append(diff.globals, name)
		}
	}
	for name := range oldGlobals {
		if _, ok := sh.globals[name]; !ok {
			diff.globals = append(diff.globals, name)
		}
	}
	sort.Strings(diff.globals)
	return diff
}

// assignGen draws the shard's next generation from the index-wide
// refreshSeq. Generation assignment is split from the view rebuild so
// cold build, restore, and Apply can draw generations deterministically
// in sorted module order before rebuilding the views of distinct shards
// in parallel — the sequence of (module, Gen) pairs downstream caches
// key on is then independent of scheduling.
func (sh *Shard) assignGen(ix *Index) {
	ix.refreshSeq++
	sh.gen = ix.refreshSeq
}

// rebuild is refresh without the champion diff — for cold builds and
// restore, where the caller rebuilds the global views from scratch and
// enumerating every champion as "changed" would be thrown away.
func (sh *Shard) rebuild(ix *Index) {
	sh.assignGen(ix)
	sh.rebuildViews(ix)
}

// rebuildViews rebuilds the shard's views from the index's per-unit
// records in O(shard). It reads only shared state that is stable during
// the rebuild (unitFuncs, Units) and writes only shard-local fields, so
// distinct shards may rebuild concurrently once their generations are
// assigned.
func (sh *Shard) rebuildViews(ix *Index) {
	nFuncs := 0
	for _, p := range sh.paths {
		nFuncs += len(ix.unitFuncs[p])
	}
	sh.funcs = make([]*Func, 0, nFuncs)
	sh.byName = make(map[string]*Func, nFuncs)
	sh.lastByName = make(map[string]*Func, nFuncs)
	sh.globals = make(map[string]globalDef, 2*len(sh.paths))
	for _, p := range sh.paths {
		for _, fa := range ix.unitFuncs[p] {
			sh.funcs = append(sh.funcs, fa)
			key := Unqualified(fa.Decl.Name)
			if _, dup := sh.byName[key]; !dup {
				sh.byName[key] = fa
			}
			sh.lastByName[key] = fa
		}
		tu := ix.Units[p]
		mod := tu.File.ModuleName()
		for _, vd := range tu.GlobalVars() {
			for _, d := range vd.Names {
				sh.globals[d.Name] = globalDef{path: p, module: mod}
			}
		}
	}
}

// diffFuncChampions returns the names mapped to different *Func values
// in old vs new (either direction). Pointer identity is the right
// equality: untouched units keep their records by pointer, so equal
// pointers mean the champion (and everything hanging off it) is
// untouched.
func diffFuncChampions(old, new map[string]*Func) []string {
	var out []string
	for name, fa := range new {
		if old[name] != fa {
			out = append(out, name)
		}
	}
	for name := range old {
		if _, ok := new[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// drainChampions returns a diff naming every champion the shard holds —
// used when a shard empties and disappears, so the global views drop or
// re-resolve all of its entries.
func (sh *Shard) drainChampions() championDiff {
	var diff championDiff
	for name := range sh.byName {
		diff.byName = append(diff.byName, name)
	}
	for name := range sh.lastByName {
		diff.lastDef = append(diff.lastDef, name)
	}
	for name := range sh.globals {
		diff.globals = append(diff.globals, name)
	}
	sort.Strings(diff.byName)
	sort.Strings(diff.lastDef)
	sort.Strings(diff.globals)
	return diff
}

// ---------------------------------------------------------------------------
// Index-level shard plumbing

// ShardNames returns the module names of all shards in sorted order. The
// slice must not be mutated.
func (ix *Index) ShardNames() []string { return ix.shardNames }

// shardContaining returns the shard owning a path, or nil. Membership is
// decided by the shards' own path lists (binary search per shard), so it
// works even when the Units map no longer holds the path.
func (ix *Index) shardContaining(p string) *Shard {
	for _, sh := range ix.shards {
		i := sort.SearchStrings(sh.paths, p)
		if i < len(sh.paths) && sh.paths[i] == p {
			return sh
		}
	}
	return nil
}

// Shard returns the shard for a module, or nil.
func (ix *Index) Shard(module string) *Shard { return ix.shards[module] }

// FuncModule returns the defining module of the last definition (in
// path order) of an unqualified function name — the resolution rule the
// architectural metrics use.
func (ix *Index) FuncModule(name string) (string, bool) {
	fa := ix.lastDef[name]
	if fa == nil {
		return "", false
	}
	return fa.Module, true
}

// UnitFuncsMap exposes the live per-unit function records keyed by path.
// The rules context shares this map instead of copying it; callers must
// not mutate it, and must not read it concurrently with Apply.
func (ix *Index) UnitFuncsMap() map[string][]*Func { return ix.unitFuncs }

// resolveByName re-resolves the global first-definition-wins champion
// for one name across all shards.
func (ix *Index) resolveByName(name string) {
	var best *Func
	for _, sh := range ix.shards {
		if c := sh.byName[name]; c != nil {
			if best == nil || c.File.Path < best.File.Path {
				best = c
			}
		}
	}
	if best == nil {
		delete(ix.ByName, name)
	} else {
		ix.ByName[name] = best
	}
}

// resolveLastDef re-resolves the global last-definition-wins champion.
func (ix *Index) resolveLastDef(name string) {
	var best *Func
	for _, sh := range ix.shards {
		if c := sh.lastByName[name]; c != nil {
			if best == nil || c.File.Path > best.File.Path {
				best = c
			}
		}
	}
	if best == nil {
		delete(ix.lastDef, name)
	} else {
		ix.lastDef[name] = best
	}
}

// resolveGlobal re-resolves the global variable champion (last file in
// path order wins, matching the seed rules.NewContext).
func (ix *Index) resolveGlobal(name string) {
	var best globalDef
	found := false
	for _, sh := range ix.shards {
		if def, ok := sh.globals[name]; ok {
			if !found || def.path > best.path {
				best, found = def, true
			}
		}
	}
	if !found {
		delete(ix.GlobalNames, name)
	} else {
		ix.GlobalNames[name] = best.module
	}
}

// applyChampionDiffs patches the global cross-file views for exactly the
// names whose within-shard champions changed, and records on the change
// feed which rule-visible fact of each name moved. A name several shards
// report is re-resolved once: resolution reads only the final shard
// views, so one pass per name is exact.
func (ix *Index) applyChampionDiffs(diffs []championDiff) {
	var byName, lastDef, globals []string
	for _, d := range diffs {
		byName = append(byName, d.byName...)
		lastDef = append(lastDef, d.lastDef...)
		globals = append(globals, d.globals...)
	}
	changes := make(map[string]Change)
	for _, name := range dedupSorted(byName) {
		old := ix.ByName[name]
		ix.resolveByName(name)
		changes[name] |= championChange(old, ix.ByName[name])
	}
	for _, name := range dedupSorted(lastDef) {
		old := funcModule(ix.lastDef[name])
		ix.resolveLastDef(name)
		if funcModule(ix.lastDef[name]) != old {
			changes[name] |= ModuleChanged
		}
	}
	for _, name := range dedupSorted(globals) {
		_, had := ix.GlobalNames[name]
		ix.resolveGlobal(name)
		if _, has := ix.GlobalNames[name]; has != had {
			changes[name] |= GlobalChanged
		}
	}
	ix.recordChanges(changes)
}

// dedupSorted sorts names and drops repeats in place.
func dedupSorted(names []string) []string {
	sort.Strings(names)
	out := names[:0]
	for i, n := range names {
		if i == 0 || n != names[i-1] {
			out = append(out, n)
		}
	}
	return out
}

// rebuildShardNames re-derives the sorted shard name list.
func (ix *Index) rebuildShardNames() {
	ix.shardNames = make([]string, 0, len(ix.shards))
	for m := range ix.shards {
		ix.shardNames = append(ix.shardNames, m)
	}
	sort.Strings(ix.shardNames)
}

// shardsInPathOrder returns the shards ordered by their smallest path
// and reports whether their path ranges are pairwise disjoint. Module
// names normally prefix their paths, so ranges are disjoint and ordered
// merges degrade to concatenation; explicit File.Module overrides can
// interleave ranges, in which case callers fall back to a real merge.
func (ix *Index) shardsInPathOrder() (ordered []*Shard, disjoint bool) {
	ordered = make([]*Shard, 0, len(ix.shardNames))
	for _, m := range ix.shardNames {
		if sh := ix.shards[m]; len(sh.paths) > 0 {
			ordered = append(ordered, sh)
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		return ordered[i].paths[0] < ordered[j].paths[0]
	})
	disjoint = true
	for i := 1; i < len(ordered); i++ {
		prev := ordered[i-1]
		if prev.paths[len(prev.paths)-1] > ordered[i].paths[0] {
			disjoint = false
			break
		}
	}
	return ordered, disjoint
}

// rebuildPaths re-derives the global sorted path list from the shards.
func (ix *Index) rebuildPaths() {
	ordered, disjoint := ix.shardsInPathOrder()
	n := 0
	for _, sh := range ordered {
		n += len(sh.paths)
	}
	out := make([]string, 0, n)
	for _, sh := range ordered {
		out = append(out, sh.paths...)
	}
	if !disjoint {
		sort.Strings(out)
	}
	ix.Paths = out
}

// rebuildFuncs re-derives the global function list (path order) from the
// shards. With disjoint shard path ranges this is pure concatenation;
// otherwise the per-shard lists (each path-ordered) are merge-sorted
// stably so same-path functions keep their source order.
func (ix *Index) rebuildFuncs() {
	ordered, disjoint := ix.shardsInPathOrder()
	n := 0
	for _, sh := range ordered {
		n += len(sh.funcs)
	}
	out := make([]*Func, 0, n)
	for _, sh := range ordered {
		out = append(out, sh.funcs...)
	}
	if !disjoint {
		sort.SliceStable(out, func(i, j int) bool {
			return out[i].File.Path < out[j].File.Path
		})
	}
	ix.Funcs = out
}
