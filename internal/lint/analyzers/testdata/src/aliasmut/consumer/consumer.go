// Package consumer mutates the artifact package's zero-copy views in
// every way aliasmut flags, plus the sanctioned copy-first idioms.
package consumer

import (
	"sort"

	"repro/internal/lint/analyzers/testdata/src/aliasmut/artifact"
	"repro/internal/lint/analyzers/testdata/src/aliasmut/metrics"
)

func elementWrite(sh *artifact.Shard) {
	p := sh.Paths()
	p[0] = "mutated" // want `writing an element of the slice returned by artifact.Shard.Paths`
}

func subsliceWrite(sh *artifact.Shard) {
	p := sh.Paths()
	q := p[1:]
	q[0] = "mutated" // want `writing an element of the slice returned by artifact.Shard.Paths`
}

func sortInPlace(sh *artifact.Shard, ix *artifact.Index) {
	sort.Strings(sh.Paths()) // want `sorting the slice returned by artifact.Shard.Paths in place`
	names := ix.ShardNames()
	sort.Sort(sort.StringSlice(names)) // want `sorting the slice returned by artifact.Index.ShardNames in place`
}

func appendInto(sh *artifact.Shard) []string {
	return append(sh.Paths(), "extra") // want `append to the slice returned by artifact.Shard.Paths`
}

func copyInto(sh *artifact.Shard, src []string) {
	copy(sh.Paths(), src) // want `copy into the slice returned by artifact.Shard.Paths`
}

func elementFieldWrite(sh *artifact.Shard) {
	for _, f := range sh.Funcs() {
		f.Line = 0 // want `writing a field of an element shared with artifact.Shard.Funcs`
	}
	fs := sh.Funcs()
	first := fs[0]
	first.Name = "mutated" // want `writing a field of an element shared with artifact.Shard.Funcs`
}

func shardRows(c *metrics.Cache) int {
	rows, _ := c.ShardRows("planning")
	total := 0
	for _, fm := range rows {
		total += fm.LOC // reading a row is fine
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].LOC < rows[j].LOC }) // want `sorting the slice returned by metrics.Cache.ShardRows in place`
	return total
}

func sanctioned(sh *artifact.Shard, ix *artifact.Index) []string {
	// Copy-first is the documented idiom: clone, then do as you like.
	q := append([]string(nil), sh.Paths()...)
	sort.Strings(q)
	q[0] = "mine"
	// Reading is always fine.
	total := 0
	for _, f := range sh.Funcs() {
		total += f.Line
	}
	_ = total
	return q
}

func suppressedMutation(sh *artifact.Shard) {
	p := sh.Paths()
	//adlint:ignore aliasmut golden: deliberate mutation kept to pin suppression
	p[0] = "mutated"
}
