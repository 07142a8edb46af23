package metrics

import (
	"repro/internal/artifact"
)

// Persistence boundary of the shard-aware metrics cache. The expensive
// part of a file row is the NLOC text scan; the snapshot therefore
// stores the finished *FileMetrics rows and RestoreRowsLazy re-derives
// the cheap per-shard aggregates (module partials, corpus totals) from
// them against the restored index, one shard at a time on first touch.
// The architectural cache (ArchCache) is deliberately not persisted: its
// partials fold in O(corpus) from the restored artifact facts with no
// text scans, so the first warm AnalyzeIndexed rebuilds them for free.

// Sealed reports whether a module's shard is still sealed: restored
// lazily (RestoreRowsLazy), never dirtied since, and valid at the
// shard's current generation, so its rows are exactly the snapshot's.
func (c *Cache) Sealed(module string) bool {
	if c.ix == nil {
		return false
	}
	sh, ms := c.ix.Shard(module), c.shards[module]
	return sh != nil && ms != nil && ms.valid && ms.loadRows != nil && ms.gen == sh.Gen()
}

// ExportRows returns the cached per-file metric rows for every path of
// the cache's current index outside the shards in skip, or ok=false
// when the cache is not warm (callers run AnalyzeIndexed —
// core.Assessor.Metrics — first). Rows come from each shard's
// path-ordered row list, so a sealed shard exports the rows it
// materialized without thawing (no hashing) and stays sealed. The
// returned rows are the live cache values; callers must treat them as
// immutable.
func (c *Cache) ExportRows(skip map[string]bool) (map[string]*FileMetrics, bool) {
	if c.ix == nil {
		return nil, false
	}
	out := make(map[string]*FileMetrics, len(c.ix.Paths))
	for _, m := range c.ix.ShardNames() {
		if skip[m] {
			continue
		}
		sh := c.ix.Shard(m)
		ms := c.shards[m]
		if ms == nil || !ms.valid || ms.gen != sh.Gen() {
			return nil, false
		}
		paths := sh.Paths()
		if len(ms.files) != len(paths) {
			return nil, false
		}
		for i, p := range paths {
			if ms.files[i].Path != p {
				return nil, false
			}
			out[p] = ms.files[i]
		}
	}
	return out, true
}

// RowLoader supplies a restored cache's per-shard rows on demand — the
// lazy face of a snapshot. ok=false degrades the shard to a recompute,
// never to wrong output.
type RowLoader interface {
	// ShardRows returns a module shard's rows aligned with its
	// snapshot-time sorted path list.
	ShardRows(module string) ([]*FileMetrics, bool)
	// ShardKeys returns the shard's snapshot-time paths and content
	// hashes (the expensive half; called only when the shard dirties).
	ShardKeys(module string) ([]string, []uint64, bool)
}

// RestoreRowsLazy seeds the cache against a freshly restored index with
// every shard sealed: rows materialize at the first AnalyzeIndexed, the
// per-file maps and content hashes only when a delta dirties the shard.
func (c *Cache) RestoreRowsLazy(ix *artifact.Index, loader RowLoader) {
	c.ix = ix
	c.shards = make(map[string]*metricShard, len(ix.ShardNames()))
	for _, m := range ix.ShardNames() {
		sh := ix.Shard(m)
		module := m
		c.shards[m] = &metricShard{
			gen:      sh.Gen(),
			valid:    true,
			loadRows: func() ([]*FileMetrics, bool) { return loader.ShardRows(module) },
			thawKeys: func() ([]string, []uint64, bool) { return loader.ShardKeys(module) },
		}
	}
	c.lastDirty = 0
}
