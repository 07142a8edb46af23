// Package artifact is a golden stand-in for the zero-copy accessor
// surfaces: aliasmut registers Shard.Paths, Index.ShardNames and
// Index.UnitFuncs by "<pkg>.<type>.<method>". The declaring package itself is exempt —
// maintaining internal state through internal aliases is its job, so the
// mutations at the bottom of this file must draw no findings.
package artifact

import "sort"

// Func is a pointer element shared between the index and callers.
type Func struct {
	Name string
	Line int
}

type Shard struct {
	paths []string
}

// Paths returns the shard's path list without copying; callers must not
// mutate it.
func (sh *Shard) Paths() []string { return sh.paths }

type Index struct {
	shardNames []string
	unitFuncs  map[string][]*Func
}

// ShardNames returns the sorted shard names without copying.
func (ix *Index) ShardNames() []string { return ix.shardNames }

// UnitFuncs returns one unit's function records without copying;
// callers must not mutate them.
func (ix *Index) UnitFuncs(path string) []*Func { return ix.unitFuncs[path] }

// internal maintenance: exempt from the check by package identity.
func (sh *Shard) addPath(p string) {
	sh.paths = append(sh.paths, p)
	sort.Strings(sh.paths)
	view := sh.Paths()
	view[0] = view[0] // self-package writes through the alias are its own business
}
