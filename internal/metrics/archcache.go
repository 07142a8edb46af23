package metrics

import (
	"repro/internal/artifact"
	"repro/internal/par"
)

// ArchCache is the shard-aware counterpart of AnalyzeArchIndexed. The
// architectural metrics are inherently cross-module (fan-in/out and
// cohesion resolve every call against the corpus-wide function→module
// table), so the cache keeps two layers per module shard: the shard's
// content counters (interface, thread/IRQ counts, and its calls per
// callee name), valid while the shard's generation holds, and the
// calls resolved to target modules, valid until the index change feed
// reports a module move (artifact.ModuleChanged) for a name the shard
// calls. A warm call recounts the dirty shards, re-resolves only the
// other shards calling a moved name, then folds the k partials into the
// final rows. Output is identical to AnalyzeArchIndexed.
//
// ArchCache is not safe for concurrent use; the Assessor serializes
// access.
type ArchCache struct {
	ix *artifact.Index
	// seen is the index generation of the previous call.
	seen   uint64
	shards map[string]*archShard
}

// archShard is one module's resolved partial.
type archShard struct {
	gen   uint64
	valid bool

	nFuncs  int
	sumPar  int
	maxPar  int
	threads int
	irqs    int
	// byCallee counts the shard's calls per unqualified callee name.
	byCallee map[string]int
	// calls counts resolved calls by target module.
	calls    map[string]int
	internal int
	external int
}

// NewArchCache returns an empty architectural-metrics cache.
func NewArchCache() *ArchCache {
	return &ArchCache{shards: make(map[string]*archShard)}
}

// AnalyzeIndexed computes per-module architectural metrics from the
// shared artifact cache, reusing per-shard partials for modules whose
// shard generation is unchanged and none of whose callees moved module.
func (c *ArchCache) AnalyzeIndexed(ix *artifact.Index) []*ArchMetrics {
	var moved []string
	resolveAll := false // fell behind the feed: every resolution is suspect
	if ix != c.ix {
		clear(c.shards)
		c.ix = ix
	} else if ix.Gen() != c.seen {
		feed, ok := ix.ChangesSince(c.seen)
		resolveAll = !ok
		for _, ch := range feed {
			if ch.What&artifact.ModuleChanged != 0 {
				moved = append(moved, ch.Name)
			}
		}
	}
	c.seen = ix.Gen()
	names := ix.ShardNames()
	if len(c.shards) > len(names) {
		live := make(map[string]bool, len(names))
		for _, m := range names {
			live[m] = true
		}
		for m := range c.shards {
			if !live[m] {
				delete(c.shards, m)
			}
		}
	}

	// Recount the dirty partials and re-resolve every partial that
	// needs it in parallel: both read only the index's shared read-only
	// views (paths, per-unit records, the name lists) and write only
	// their own partial, and the fold below walks shards in sorted name
	// order.
	type staleShard struct {
		mod   string
		sh    *artifact.Shard
		as    *archShard
		count bool // content moved: recount before resolving
	}
	var stale []staleShard
	for _, m := range names {
		sh := ix.Shard(m)
		as := c.shards[m]
		if as == nil {
			as = &archShard{}
			c.shards[m] = as
		}
		if count := !as.valid || as.gen != sh.Gen(); count || resolveAll || as.callsAny(moved) {
			stale = append(stale, staleShard{m, sh, as, count})
		}
	}
	par.For(par.Workers(len(stale)), len(stale), func(k int) {
		d := stale[k]
		if d.count {
			d.as.count(ix, d.sh)
		}
		d.as.resolve(ix, d.mod)
	})

	// Fold the partials into the final rows (sorted module order, the
	// same order AnalyzeArchIndexed emits).
	out := make([]*ArchMetrics, 0, len(names))
	callersOf := make(map[string]map[string]bool, len(names))
	for _, m := range names {
		as := c.shards[m]
		for tgt := range as.calls {
			if tgt == m {
				continue
			}
			if callersOf[tgt] == nil {
				callersOf[tgt] = make(map[string]bool)
			}
			callersOf[tgt][m] = true
		}
	}
	for _, m := range names {
		as := c.shards[m]
		am := &ArchMetrics{
			Module:             m,
			MaxInterfaceParams: as.maxPar,
			ThreadPrimitives:   as.threads,
			InterruptHandlers:  as.irqs,
			InternalCalls:      as.internal,
			ExternalCalls:      as.external,
			FanIn:              len(callersOf[m]),
		}
		for tgt := range as.calls {
			if tgt != m {
				am.FanOut++
			}
		}
		total := as.internal + as.external
		if total > 0 {
			am.Cohesion = float64(as.internal) / float64(total)
		} else {
			am.Cohesion = 1.0
		}
		if as.nFuncs > 0 {
			am.MeanInterfaceParams = float64(as.sumPar) / float64(as.nFuncs)
		}
		out = append(out, am)
	}
	return out
}

// callsAny reports whether the shard calls one of names.
func (as *archShard) callsAny(names []string) bool {
	for _, name := range names {
		if as.byCallee[name] > 0 {
			return true
		}
	}
	return false
}

// count recomputes one shard's content counters in O(shard) from its
// units' records; it reads no source.
func (as *archShard) count(ix *artifact.Index, sh *artifact.Shard) {
	as.nFuncs, as.sumPar, as.maxPar = 0, 0, 0
	as.threads, as.irqs = 0, 0
	as.byCallee = make(map[string]int)
	for _, p := range sh.Paths() {
		for _, fa := range ix.UnitFuncs(p) {
			as.nFuncs++
			as.sumPar += fa.Params
			if fa.Params > as.maxPar {
				as.maxPar = fa.Params
			}
			for _, callee := range fa.Calls {
				if schedulingAPIs[callee] {
					as.threads++
				}
				if interruptAPIs[callee] {
					as.irqs++
				}
				as.byCallee[lastName(callee)]++
			}
		}
	}
	as.gen, as.valid = sh.Gen(), true
}

// resolve maps the shard's calls to target modules, resolving each
// distinct callee name once.
func (as *archShard) resolve(ix *artifact.Index, mod string) {
	as.internal, as.external = 0, 0
	as.calls = make(map[string]int)
	for name, n := range as.byCallee {
		if tgt, ok := ix.FuncModule(name); ok {
			as.calls[tgt] += n
			if tgt == mod {
				as.internal += n
			} else {
				as.external += n
			}
		}
	}
}
