package metrics

import (
	"sort"

	"repro/internal/artifact"
	"repro/internal/par"
)

// Cache is a shard-aware per-file metrics cache. A warm AnalyzeIndexed
// consults the index's per-module shard generations: clean shards
// contribute their cached file rows AND their cached module partial
// (ModuleMetrics plus the shard's share of the corpus totals) without
// being scanned at all; dirty shards recompute rows only for files whose
// unit generation (artifact.Index.UnitGen) moved and re-fold their
// partial in O(shard). The global result is then a merge of the
// per-shard row lists (path order) and a fold of the partials —
// O(dirty shard + #shards), not O(corpus) — and is identical to the
// cache-free AnalyzeIndexed over the same index.
//
// File rows depend only on the file's path (module, language) and
// content (lines, NLOC, per-function facts from the artifact cache), and
// within one index a unit's generation moves whenever either does, so a
// (path, UnitGen) key is exact. Cached *FileMetrics and *ModuleMetrics
// are shared across results; callers must treat them as immutable.
//
// Cache is not safe for concurrent use; the Assessor serializes access.
type Cache struct {
	// Hydrate, when set, is called with the dirty paths of a warm run
	// before their rows are recomputed. core.Assessor installs it to
	// re-parse stub units on demand: in the normal flow dirty files
	// arrive freshly parsed and the hook no-ops, but if a restored
	// shard's row block was left out of the fill, its unchanged files
	// are recomputed, and a row needs each function's span, which a
	// stub's records (Decl == nil) do not have.
	Hydrate func(paths []string)

	ix     *artifact.Index
	shards map[string]*metricShard
	// lastDirty records how many rows the previous AnalyzeIndexed
	// recomputed.
	lastDirty int
}

// metricShard is the cached state for one module shard: its rows in
// shard path order, the unit generation each row was computed at, and
// the folded partials. A cold run, a warm rebuild and a snapshot restore
// all fill it the same way.
type metricShard struct {
	gen    uint64 // artifact shard generation the rows match; 0 = never built
	sealed bool   // filled by RestoreRows and not rebuilt since
	files  []*FileMetrics
	gens   []uint64
	mm     *ModuleMetrics
	// totals are the shard's contribution to the corpus-wide counters.
	totLOC, totNLOC, totFunc, modWorse int
}

// NewCache returns an empty metrics cache.
func NewCache() *Cache {
	return &Cache{shards: make(map[string]*metricShard)}
}

// LastDirty returns the number of file rows the previous AnalyzeIndexed
// recomputed.
func (c *Cache) LastDirty() int { return c.lastDirty }

// AnalyzeIndexed computes framework metrics from the index, reusing
// cached per-file rows and per-shard aggregates wherever the shard
// generations show nothing changed.
func (c *Cache) AnalyzeIndexed(ix *artifact.Index) *FrameworkMetrics {
	if ix != c.ix {
		// Generations from another index mean nothing.
		c.ix = ix
		c.shards = make(map[string]*metricShard)
	}
	names := ix.ShardNames()
	for m := range c.shards {
		if ix.Shard(m) == nil {
			delete(c.shards, m) // the shard no longer exists
		}
	}

	// Pass 1: in every shard whose generation moved, merge-walk the cached
	// rows against the current sorted paths, reusing a row whose path and
	// unit generation match and marking the rest dirty.
	type slot struct {
		ms *metricShard
		i  int // index into ms.files
	}
	var dirtyPaths []string
	var dirtySlots []slot
	var dirtyShards []*metricShard
	for _, m := range names {
		sh := ix.Shard(m)
		ms := c.shards[m]
		if ms == nil {
			ms = &metricShard{}
			c.shards[m] = ms
		}
		if ms.gen == sh.Gen() {
			continue
		}
		old, oldGens := ms.files, ms.gens
		ms.files = make([]*FileMetrics, sh.Len())
		ms.gens = make([]uint64, sh.Len())
		i := 0 // cursor into old
		for j, p := range sh.Paths() {
			ms.gens[j] = ix.UnitGen(p)
			for i < len(old) && old[i].Path < p {
				i++
			}
			if i < len(old) && old[i].Path == p && oldGens[i] == ms.gens[j] {
				ms.files[j] = old[i]
				continue
			}
			dirtyPaths = append(dirtyPaths, p)
			dirtySlots = append(dirtySlots, slot{ms, j})
		}
		ms.gen, ms.sealed = sh.Gen(), false
		dirtyShards = append(dirtyShards, ms)
	}
	c.lastDirty = len(dirtyPaths)
	if c.Hydrate != nil && len(dirtyPaths) > 0 {
		c.Hydrate(dirtyPaths)
	}

	// Pass 2: recompute the dirty rows in parallel (the NLOC text scans
	// dominate).
	par.For(par.Workers(len(dirtyPaths)), len(dirtyPaths), func(k int) {
		p := dirtyPaths[k]
		dirtySlots[k].ms.files[dirtySlots[k].i] = analyzeFileIndexed(ix.Units[p], ix.UnitFuncs(p))
	})

	// Pass 3: re-fold the dirty shards' partials in parallel — refold
	// reads and writes only shard-local state, and the global fold below
	// walks shards in sorted name order.
	par.For(par.Workers(len(dirtyShards)), len(dirtyShards), func(k int) {
		dirtyShards[k].refold()
	})

	// Global result: merge row lists in path order, fold partials.
	out := &FrameworkMetrics{Files: c.mergeFiles(ix)}
	out.Modules = make([]*ModuleMetrics, 0, len(names))
	for _, m := range names {
		ms := c.shards[m]
		if ms.mm != nil {
			out.Modules = append(out.Modules, ms.mm)
		}
		out.TotalLOC += ms.totLOC
		out.TotalNLOC += ms.totNLOC
		out.TotalFunc += ms.totFunc
		out.ModerateOrWorse += ms.modWorse
	}
	return out
}

// refold recomputes the shard's ModuleMetrics and totals from its file
// rows. Every counter is an integer, so folding per shard and summing
// across shards yields exactly what a flat aggregate over all files
// would.
func (ms *metricShard) refold() {
	ms.totLOC, ms.totNLOC, ms.totFunc, ms.modWorse = 0, 0, 0, 0
	var mm *ModuleMetrics
	for _, fm := range ms.files {
		if mm == nil {
			mm = &ModuleMetrics{Name: fm.Module, OverCCN: make(map[int]int)}
		}
		mm.Files++
		mm.LOC += fm.LOC
		mm.NLOC += fm.NLOC
		ms.totLOC += fm.LOC
		ms.totNLOC += fm.NLOC
		for _, fn := range fm.Functions {
			mm.Functions++
			ms.totFunc++
			mm.SumCCN += fn.CCN
			if fn.CCN > mm.MaxCCN {
				mm.MaxCCN = fn.CCN
			}
			for _, th := range Thresholds {
				if fn.CCN > th {
					mm.OverCCN[th]++
				}
			}
			if fn.CCN >= 11 {
				ms.modWorse++
			}
		}
	}
	ms.mm = mm
}

// mergeFiles assembles the global file-row list in sorted path order:
// the per-shard lists concatenated in the index's shard path order
// (artifact.Index.ShardsInPathOrder), stably sorted by path when
// explicit module overrides interleave the shards' path ranges.
func (c *Cache) mergeFiles(ix *artifact.Index) []*FileMetrics {
	ordered, disjoint := ix.ShardsInPathOrder()
	out := make([]*FileMetrics, 0, len(ix.Paths))
	for _, sh := range ordered {
		out = append(out, c.shards[sh.Module].files...)
	}
	if !disjoint {
		sort.SliceStable(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	}
	return out
}
