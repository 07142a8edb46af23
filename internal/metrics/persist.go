package metrics

import (
	"repro/internal/artifact"
	"repro/internal/par"
)

// Persistence boundary of the shard-aware metrics cache. The expensive
// part of a file row is the NLOC text scan; the snapshot therefore
// stores the finished *FileMetrics rows and RestoreRows re-derives the
// cheap per-shard aggregates (module partials, corpus totals) from them
// against the restored index. The architectural cache (ArchCache) is
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
// shard in shards (rows, one per path of the shard in its sorted order)
// is filled at the current unit generations, folded, and marked sealed.
// A shard missing from shards is left empty, so the first AnalyzeIndexed
// recomputes exactly that shard.
func (c *Cache) RestoreRows(ix *artifact.Index, shards map[string][]*FileMetrics) {
	c.ix = ix
	c.shards = make(map[string]*metricShard, len(shards))
	names := ix.ShardNames()
	mss := make([]*metricShard, len(names))
	par.For(par.Workers(len(names)), len(names), func(k int) {
		sh := ix.Shard(names[k])
		rows, ok := shards[names[k]]
		if !ok {
			return
		}
		ms := &metricShard{gen: sh.Gen(), sealed: true, files: rows, gens: make([]uint64, len(rows))}
		for i, p := range sh.Paths() {
			ms.gens[i] = ix.UnitGen(p)
		}
		ms.refold()
		mss[k] = ms
	})
	for k, ms := range mss {
		if ms != nil {
			c.shards[names[k]] = ms
		}
	}
	c.lastDirty = 0
}
