package metrics

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/artifact"
	"repro/internal/par"
)

// Cache is a shard-aware per-file metrics cache. A warm AnalyzeIndexed
// consults the index's per-module shard generations: clean shards keep
// their cached file rows and module partial without being scanned at
// all; in a dirty shard only the files whose unit generation
// (artifact.Index.UnitGen) moved are recomputed, and the shard's module
// partial moves by those files' differences: the replaced and removed
// rows are subtracted and the recomputed ones added (count), the same
// function a cold fill and RestoreRows add every row with. Every
// counter is an integer, so the result cannot drift; the corpus totals
// are the sums of the module partials, and the result is identical to
// the cache-free AnalyzeIndexed over the same index. MaxCCN is the one
// counter a subtraction cannot undo: the shard's rows are rescanned for
// it only when a subtracted row held it.
//
// File rows depend only on the file's path (module, language) and
// content (lines, NLOC, per-function facts from the artifact cache), and
// within one index a unit's generation moves whenever either does, so a
// (path, UnitGen) key is exact. Cached *FileMetrics and *ModuleMetrics
// are shared across results; callers must treat them as immutable. A
// changed shard therefore gets a fresh row list and a fresh module
// partial, and a list or partial handed out is never written again.
//
// A recomputed row reads each function's span, so every dirty file must
// be parsed (core.Assessor parses a restored shard it leaves out). Cache
// is not safe for concurrent use; the Assessor serializes access.
type Cache struct {
	ix     *artifact.Index
	shards map[string]*metricShard
	// lastDirty records how many rows the previous AnalyzeIndexed
	// recomputed.
	lastDirty int
}

// metricShard is the cached state for one module shard: its sorted
// paths when last computed, the row of each and the unit generation it
// was computed at, and the module partial. A cold run, a warm rebuild
// and a snapshot restore all fill it the same way.
type metricShard struct {
	gen    uint64 // artifact shard generation the rows match; 0 = never built
	sealed bool   // filled by RestoreRows and not rebuilt since
	paths  []string
	files  []*FileMetrics
	gens   []uint64
	mm     *ModuleMetrics
	// lostMax is set when a subtracted row held mm.MaxCCN.
	lostMax bool
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
	// rows against the current sorted paths (artifact.Index.WalkShard),
	// reusing a row whose path and unit generation match, and subtracting
	// every other cached row from a fresh copy of the module partial.
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
		old := ms.files
		ms.files = make([]*FileMetrics, sh.Len())
		ms.thaw(m)
		ms.gens = ix.WalkShard(sh, ms.paths, ms.gens, func(i, j int, same bool) {
			if same {
				ms.files[j] = old[i]
				return
			}
			if i >= 0 {
				ms.count(old[i], -1) // replaced or removed
			}
			if j >= 0 {
				dirtyPaths = append(dirtyPaths, sh.Paths()[j])
				dirtySlots = append(dirtySlots, slot{ms, j})
			}
		})
		ms.paths = slices.Clone(sh.Paths()) // Apply edits the shard's list in place
		ms.gen, ms.sealed = sh.Gen(), false
		dirtyShards = append(dirtyShards, ms)
	}
	c.lastDirty = len(dirtyPaths)

	// Pass 2: recompute the dirty rows in parallel (the NLOC text scans
	// dominate), then add them.
	par.For(par.Workers(len(dirtyPaths)), len(dirtyPaths), func(k int) {
		p := dirtyPaths[k]
		dirtySlots[k].ms.files[dirtySlots[k].i] = analyzeFileIndexed(ix.Units[p], ix.UnitFuncs(p))
	})
	for _, sl := range dirtySlots {
		sl.ms.count(sl.ms.files[sl.i], 1)
	}
	for _, ms := range dirtyShards {
		ms.settleMax()
	}
	return c.result(ix)
}

// result assembles the framework result from the module partials,
// summing them into the corpus totals (a function with CCN >= 11 is one
// over the first threshold, 10). The file-row list is built on first
// use (Files): the per-shard row lists as they stand now, which later
// calls never write, concatenated in the index's shard path order
// (artifact.Index.ShardsInPathOrder) and stably sorted by path when
// explicit module overrides interleave the shards' path ranges.
func (c *Cache) result(ix *artifact.Index) *FrameworkMetrics {
	names := ix.ShardNames()
	out := &FrameworkMetrics{Modules: make([]*ModuleMetrics, 0, len(names))}
	for _, m := range names {
		mm := c.shards[m].mm
		out.Modules = append(out.Modules, mm)
		out.TotalFiles += mm.Files
		out.TotalLOC += mm.LOC
		out.TotalNLOC += mm.NLOC
		out.TotalFunc += mm.Functions
		out.ModerateOrWorse += mm.OverCCN[10]
	}
	ordered, disjoint := ix.ShardsInPathOrder()
	lists := make([][]*FileMetrics, len(ordered))
	for i, sh := range ordered {
		lists[i] = c.shards[sh.Module].files
	}
	out.rows = func() []*FileMetrics {
		rows := make([]*FileMetrics, 0, out.TotalFiles)
		for _, l := range lists {
			rows = append(rows, l...)
		}
		if !disjoint {
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].Path < rows[j].Path })
		}
		return rows
	}
	return out
}

// thaw gives the shard a fresh module partial equal to its current one
// (a new, empty one for a new shard), so a partial already handed out
// is never written again.
func (ms *metricShard) thaw(module string) {
	mm := &ModuleMetrics{Name: module, OverCCN: make(map[int]int, len(Thresholds))}
	if ms.mm != nil {
		*mm = *ms.mm
		mm.OverCCN = maps.Clone(ms.mm.OverCCN)
	}
	ms.mm, ms.lostMax = mm, false
}

// count adds one row (sign +1) to or subtracts it (sign -1) from the
// shard's module partial, deleting OverCCN entries that reach zero. A
// subtracted row holding the partial's MaxCCN marks it lost; settleMax
// restores it.
func (ms *metricShard) count(fm *FileMetrics, sign int) {
	mm := ms.mm
	mm.Files += sign
	mm.LOC += sign * fm.LOC
	mm.NLOC += sign * fm.NLOC
	for _, fn := range fm.Functions {
		mm.Functions += sign
		mm.SumCCN += sign * fn.CCN
		for _, th := range Thresholds {
			if fn.CCN > th {
				if mm.OverCCN[th] += sign; mm.OverCCN[th] == 0 {
					delete(mm.OverCCN, th)
				}
			}
		}
		if fn.Returns > 1 {
			mm.MultiExit += sign
		}
		switch {
		case sign > 0 && fn.CCN > mm.MaxCCN:
			mm.MaxCCN = fn.CCN
		case sign < 0 && fn.CCN == mm.MaxCCN:
			ms.lostMax = true
		}
	}
}

// settleMax rescans the shard's rows for MaxCCN when a subtracted row
// held it.
func (ms *metricShard) settleMax() {
	if !ms.lostMax {
		return
	}
	ms.mm.MaxCCN = 0
	for _, fm := range ms.files {
		for _, fn := range fm.Functions {
			ms.mm.MaxCCN = max(ms.mm.MaxCCN, fn.CCN)
		}
	}
	ms.lostMax = false
}
