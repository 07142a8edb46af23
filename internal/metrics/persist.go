package metrics

import (
	"slices"

	"repro/internal/artifact"
)

// Persistence boundary of the shard-aware metrics cache. The expensive
// part of a file row is the NLOC text scan; the snapshot therefore
// stores the finished *FileMetrics rows and RestoreRows re-derives the
// cheap module partials from them against the restored index. The architectural cache (ArchCache) is
// deliberately not persisted: its partials fold in O(corpus) from the
// restored artifact facts with no text scans, so the first warm
// AnalyzeIndexed rebuilds them for free.

// Sealed reports whether a module's shard is still sealed: filled by
// RestoreRows, never rebuilt since, and valid at the shard's current
// generation, so its rows are exactly the snapshot's.
func (c *Cache) Sealed(module string) bool {
	if c.ix == nil {
		return false
	}
	sh, ms := c.ix.Shard(module), c.shards[module]
	return sh != nil && ms != nil && ms.sealed && ms.gen == sh.Gen()
}

// ShardRows returns a module shard's cached metric rows, one per path
// of the shard in its sorted order, or ok=false when the shard holds no
// warm state for the cache's current index (callers run AnalyzeIndexed
// — core.Assessor.Metrics — first). The slice is the cache's own row
// list, which it never writes again (every rebuild allocates a fresh
// one); callers must treat it and its rows as immutable.
func (c *Cache) ShardRows(module string) ([]*FileMetrics, bool) {
	if c.ix == nil {
		return nil, false
	}
	sh, ms := c.ix.Shard(module), c.shards[module]
	if sh == nil || ms == nil || ms.gen != sh.Gen() {
		return nil, false
	}
	return ms.files, true
}

// RestoreRows seeds the cache against a freshly restored index: every
// shard in stored (rows read from a snapshot, one per path of the shard
// in its sorted order) is filled at the current unit generations, its
// rows added to a fresh module partial as a cold run adds them (count),
// and marked sealed; every shard in computed (rows the restore computed
// afresh because its stored block was unusable) is filled the same way,
// unsealed. A shard in neither is left empty, so the first
// AnalyzeIndexed recomputes exactly that shard.
func (c *Cache) RestoreRows(ix *artifact.Index, stored, computed map[string][]*FileMetrics) {
	c.ix = ix
	c.shards = make(map[string]*metricShard, len(stored)+len(computed))
	c.lastDirty = 0
	for _, m := range ix.ShardNames() {
		rows, sealed := stored[m], true
		if rows == nil {
			rows, sealed = computed[m], false
			c.lastDirty += len(rows)
		}
		if rows == nil {
			continue
		}
		sh := ix.Shard(m)
		ms := &metricShard{gen: sh.Gen(), sealed: sealed, paths: slices.Clone(sh.Paths()), files: rows, gens: ix.UnitGens(sh)}
		ms.thaw(m)
		for _, fm := range rows {
			ms.count(fm, 1)
		}
		c.shards[m] = ms
	}
}

// Fill seeds the cache against a freshly built index from every shard's
// rows as a cold load computed them (RestoreRows with nothing stored)
// and returns the framework result; LastDirty counts every row.
func (c *Cache) Fill(ix *artifact.Index, rows map[string][]*FileMetrics) *FrameworkMetrics {
	c.RestoreRows(ix, nil, rows)
	return c.result(ix)
}
