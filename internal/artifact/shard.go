package artifact

import (
	"slices"
	"sort"
)

// This file implements the index's two layers over the per-unit
// records. Shards partition the files by module
// (srcfile.File.ModuleName): a shard is its sorted path list and a
// generation, which the rule cache, the metrics cache and the snapshot
// layout key on. The cross-file name views rest on one list per name:
// every definition of an unqualified function name in path order, then
// source order, and every declaring file of a file-scope variable name
// in path order. ByName is a list's first entry, FuncModule its last,
// and GlobalNames the module of a variable's last declaring file.
//
// A cold build appends every unit's entries in path order; Apply drops
// the entries of the units it removes or replaces and inserts those of
// the units it adds, through the same two functions (addUnit,
// dropUnit), and re-resolves only the names it touched. A warm Apply
// therefore costs O(changed units), and records, for every touched
// name, which rule-visible fact moved (feed.go).

// Shard is the per-module partition of the index: its module, its
// sorted paths and its generation.
type Shard struct {
	// Module is the shard key.
	Module string

	// paths lists the shard's unit paths in sorted order.
	paths []string
	// gen is the shard's generation (Gen).
	gen uint64
}

// Gen returns the shard generation, drawn anew by every Build and by
// every Apply that adds, replaces or removes one of the shard's units.
// Two reads with equal (shard pointer, Gen) observe the same units.
func (sh *Shard) Gen() uint64 { return sh.gen }

// Paths returns the shard's unit paths in sorted order. The slice must
// not be mutated.
func (sh *Shard) Paths() []string { return sh.paths }

// Len returns the number of files in the shard.
func (sh *Shard) Len() int { return len(sh.paths) }

// addPath inserts p into the sorted path list (no-op when present).
func (sh *Shard) addPath(p string) {
	i := sort.SearchStrings(sh.paths, p)
	if i < len(sh.paths) && sh.paths[i] == p {
		return
	}
	sh.paths = slices.Insert(sh.paths, i, p)
}

// removePath deletes p from the sorted path list (no-op when absent).
func (sh *Shard) removePath(p string) {
	i := sort.SearchStrings(sh.paths, p)
	if i >= len(sh.paths) || sh.paths[i] != p {
		return
	}
	sh.paths = append(sh.paths[:i], sh.paths[i+1:]...)
}

// UnitGens returns the unit generation (UnitGen) of each of the shard's
// paths, in its path order.
func (ix *Index) UnitGens(sh *Shard) []uint64 {
	gens := make([]uint64, len(sh.paths))
	for i, p := range sh.paths {
		gens[i] = ix.unitGen[p]
	}
	return gens
}

// WalkShard is the merge-walk a per-file cache over a shard brings
// itself up to date with. paths and gens are the cache's record of the
// shard: its sorted paths when the cache last computed them, and the
// unit generation of each then. fn is called once per file of either
// list, in path order, with the file's position in each (-1 where it is
// absent): (i, -1) for a removed file, (-1, j) for an added one, and
// (i, j) for a file in both, with same set when its unit generation did
// not move, so what the cache holds for it is still exact. WalkShard
// returns the current generations (UnitGens), which the cache records
// for its next walk.
func (ix *Index) WalkShard(sh *Shard, paths []string, gens []uint64, fn func(i, j int, same bool)) []uint64 {
	now := ix.UnitGens(sh)
	i := 0
	for j, p := range sh.paths {
		for i < len(paths) && paths[i] < p {
			fn(i, -1, false)
			i++
		}
		if i < len(paths) && paths[i] == p {
			fn(i, j, gens[i] == now[j])
			i++
		} else {
			fn(-1, j, false)
		}
	}
	for ; i < len(paths); i++ {
		fn(i, -1, false)
	}
	return now
}

// assignGen draws the shard's next generation from the index-wide
// refreshSeq, so generations are unique across shards and across shard
// lifetimes. Build and Apply draw them in sorted module order, so the
// sequence of (module, Gen) pairs downstream caches key on is
// deterministic.
func (sh *Shard) assignGen(ix *Index) {
	ix.refreshSeq++
	sh.gen = ix.refreshSeq
}

// ---------------------------------------------------------------------------
// Name lists

// globalDef is one declaration of a file-scope variable name: the
// declaring file and its module.
type globalDef struct {
	path   string
	module string
}

// touched holds, for every name an Apply edits, its resolution before
// the first edit (nil for a cold build, which records nothing).
type touched map[string]resolution

// note records name's current resolution unless an earlier edit of
// this Apply already did.
func (t touched) note(ix *Index, name string) {
	if t == nil {
		return
	}
	if _, ok := t[name]; !ok {
		t[name] = ix.resolve(name)
	}
}

// addUnit inserts the entries of the unit under p (its stored records
// and global names) into the name lists: each after every entry whose
// path is ≤ p, so overloads within the unit keep their source order. A
// cold build adds units in path order, so every insertion appends.
func (ix *Index) addUnit(p, module string, t touched) {
	for _, fa := range ix.unitFuncs[p] {
		name := Unqualified(fa.Name)
		t.note(ix, name)
		defs := ix.defs[name]
		i := len(defs)
		for i > 0 && defs[i-1].File.Path > p {
			i--
		}
		ix.setDefs(name, slices.Insert(defs, i, fa))
	}
	for _, g := range ix.unitGlobals[p] {
		t.note(ix, g)
		decls := ix.globals[g]
		i := len(decls)
		for i > 0 && decls[i-1].path > p {
			i--
		}
		ix.setGlobals(g, slices.Insert(decls, i, globalDef{path: p, module: module}))
	}
}

// dropUnit removes the entries addUnit inserted for the unit under p,
// one per stored record and per stored global name. It reads only the
// index's own per-unit state, never Units[p]: a caller sharing the
// Units map (core.Assessor) may already have replaced or deleted it.
func (ix *Index) dropUnit(p string, t touched) {
	for _, fa := range ix.unitFuncs[p] {
		name := Unqualified(fa.Name)
		t.note(ix, name)
		defs := ix.defs[name]
		if i := slices.Index(defs, fa); i >= 0 {
			ix.setDefs(name, slices.Delete(defs, i, i+1))
		}
	}
	for _, g := range ix.unitGlobals[p] {
		t.note(ix, g)
		decls := ix.globals[g]
		if i := slices.IndexFunc(decls, func(d globalDef) bool { return d.path == p }); i >= 0 {
			ix.setGlobals(g, slices.Delete(decls, i, i+1))
		}
	}
}

// setDefs stores name's definition list and resolves ByName from it.
func (ix *Index) setDefs(name string, defs []*Func) {
	if len(defs) == 0 {
		delete(ix.defs, name)
		delete(ix.ByName, name)
		return
	}
	ix.defs[name], ix.ByName[name] = defs, defs[0]
}

// setGlobals stores name's declaration list and resolves GlobalNames
// from it.
func (ix *Index) setGlobals(name string, decls []globalDef) {
	if len(decls) == 0 {
		delete(ix.globals, name)
		delete(ix.GlobalNames, name)
		return
	}
	ix.globals[name], ix.GlobalNames[name] = decls, decls[len(decls)-1].module
}

// FuncModule returns the defining module of the last definition (in
// path order, then source order) of an unqualified function name — the
// resolution rule the architectural metrics use.
func (ix *Index) FuncModule(name string) (string, bool) {
	defs := ix.defs[name]
	if len(defs) == 0 {
		return "", false
	}
	return defs[len(defs)-1].Module, true
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

// UnitFuncsMap exposes the live per-unit function records keyed by path.
// The rules context shares this map instead of copying it; callers must
// not mutate it, and must not read it concurrently with Apply.
func (ix *Index) UnitFuncsMap() map[string][]*Func { return ix.unitFuncs }

// rebuildShardNames re-derives the sorted shard name list.
func (ix *Index) rebuildShardNames() {
	ix.shardNames = make([]string, 0, len(ix.shards))
	for m := range ix.shards {
		ix.shardNames = append(ix.shardNames, m)
	}
	sort.Strings(ix.shardNames)
}

// ShardsInPathOrder returns the non-empty shards ordered by their
// smallest path and reports whether their path ranges are pairwise
// disjoint. Module names normally prefix their paths, so ranges are
// disjoint and ordered merges of per-shard lists degrade to
// concatenation; explicit File.Module overrides can interleave ranges,
// in which case callers (the index's own path list, the metrics
// cache's file rows) stably sort the concatenation by path.
func (ix *Index) ShardsInPathOrder() (ordered []*Shard, disjoint bool) {
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
	ordered, disjoint := ix.ShardsInPathOrder()
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
