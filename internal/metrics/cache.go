package metrics

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/artifact"
)

// Cache is a shard-aware per-file metrics cache. It computes no row: a
// load fills it with every file's row (Fill, RestoreRows), and a warm
// AnalyzeIndexed takes the rows its caller computed for the files that
// changed. AnalyzeIndexed consults the index's per-module shard
// generations: clean shards keep their cached file rows and module
// partial without being scanned at all; in a dirty shard only the files
// whose unit generation (artifact.Index.UnitGen) moved take new rows,
// and the shard's module partial moves by those files' differences: the
// replaced and removed rows are subtracted and the new ones added
// (count), the same function a fill adds every row with. Every
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
// Rows come from the parse of their file (FileRow, in core.Assessor's
// per-file step), so the cache never reads an AST. Cache is not safe
// for concurrent use; the Assessor serializes access.
type Cache struct {
	ix     *artifact.Index
	shards map[string]*metricShard
	// lastDirty records how many rows the previous fill or
	// AnalyzeIndexed took.
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

// LastDirty returns the number of file rows the previous fill or
// AnalyzeIndexed took.
func (c *Cache) LastDirty() int { return c.lastDirty }

// AnalyzeIndexed computes framework metrics from the index the cache
// was filled against (Fill, RestoreRows), reusing cached per-file rows
// and per-shard aggregates wherever the shard generations show nothing
// changed, and taking from rows the row of each file whose unit
// generation moved. It fails closed: a changed file without a row, or
// another index, panics.
func (c *Cache) AnalyzeIndexed(ix *artifact.Index, rows map[string]*FileMetrics) *FrameworkMetrics {
	if ix != c.ix {
		panic("metrics: AnalyzeIndexed over an index the cache was not filled from")
	}
	names := ix.ShardNames()
	for m := range c.shards {
		if ix.Shard(m) == nil {
			delete(c.shards, m) // the shard no longer exists
		}
	}

	// In every shard whose generation moved, merge-walk the cached rows
	// against the current sorted paths (artifact.Index.WalkShard),
	// reusing a row whose path and unit generation match, subtracting
	// every other cached row from a fresh copy of the module partial and
	// adding the changed files' new rows.
	c.lastDirty = 0
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
				p := sh.Paths()[j]
				fm := rows[p]
				if fm == nil {
					panic("metrics: no row of changed file " + p)
				}
				ms.files[j] = fm
				ms.count(fm, 1)
				c.lastDirty++
			}
		})
		ms.settleMax()
		ms.paths = slices.Clone(sh.Paths()) // Apply edits the shard's list in place
		ms.gen, ms.sealed = sh.Gen(), false
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
