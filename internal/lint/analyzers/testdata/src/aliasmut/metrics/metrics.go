// Package metrics is a golden stand-in for the metrics cache's
// zero-copy row view: aliasmut registers Cache.ShardRows.
package metrics

// FileMetrics is one file's row.
type FileMetrics struct {
	Path string
	LOC  int
}

type Cache struct {
	rows map[string][]*FileMetrics
}

// ShardRows returns a shard's cached rows without copying; callers must
// not mutate them.
func (c *Cache) ShardRows(module string) ([]*FileMetrics, bool) {
	rows, ok := c.rows[module]
	return rows, ok
}
