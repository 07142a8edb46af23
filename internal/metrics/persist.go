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

// ExportRows returns the cached per-file metric rows for every path of
// the cache's current index outside the shards in skip, or ok=false
// when the cache is not warm (callers run AnalyzeIndexed —
// core.Assessor.Metrics — first). Rows come from each shard's
// path-ordered row list. The returned rows are the live cache values;
// callers must treat them as immutable.
func (c *Cache) ExportRows(skip map[string]bool) (map[string]*FileMetrics, bool) {
	if c.ix == nil {
		return nil, false
	}
	out := make(map[string]*FileMetrics, len(c.ix.Paths))
	for _, m := range c.ix.ShardNames() {
		if skip[m] {
			continue
		}
		ms := c.shards[m]
		if ms == nil || ms.gen != c.ix.Shard(m).Gen() {
			return nil, false
		}
		for _, fm := range ms.files {
			out[fm.Path] = fm
		}
	}
	return out, true
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
