package metrics

import (
	"slices"

	"repro/internal/artifact"
	"repro/internal/par"
)

// ArchCache is the shard-aware counterpart of AnalyzeArchIndexed. The
// architectural metrics are inherently cross-module (fan-in/out and
// cohesion resolve every call against the corpus-wide function→module
// table), so the cache keeps two layers per module shard: the shard's
// content counters (interface, thread/IRQ counts, and its calls per
// callee name), and the calls resolved to target modules.
//
// Both layers move by difference. When a shard's generation moves, the
// content counters subtract the records the cache last counted for each
// replaced or removed file and add the current records of each replaced
// or added one (count; a cold fill adds every file the same way), and
// only the callee names whose call count moved are re-resolved. A shard
// calling a name whose module moved (artifact.ModuleChanged in the index
// change feed) re-resolves all its calls, as does every shard after a
// feed overrun. The k partials then fold into the final rows. Output is
// identical to AnalyzeArchIndexed.
//
// ArchCache is not safe for concurrent use; the Assessor serializes
// access.
type ArchCache struct {
	ix *artifact.Index
	// seen is the index generation of the previous call.
	seen   uint64
	shards map[string]*archShard
}

// archShard is one module's partial.
type archShard struct {
	gen uint64 // artifact shard generation the counters match; 0 = never built
	// paths, gens and recs are the shard's files when last counted, the
	// unit generation of each, and the records counted for it (the
	// index's UnitFuncs slice then; Apply installs a fresh slice for a
	// replaced unit, so recs keeps the old records).
	paths []string
	gens  []uint64
	recs  [][]*artifact.Func

	nFuncs  int
	sumPar  int
	maxPar  int
	threads int
	irqs    int
	// lostMax is set when a subtracted record held maxPar.
	lostMax bool
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
// shared artifact cache, updating the partials of the shards whose
// generation moved or one of whose callees moved module.
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
	// A shard absent at a call is dropped, however many others came, so
	// every partial kept was updated at every call since it was built:
	// the name moves it missed would otherwise go unresolved.
	for m := range c.shards {
		if ix.Shard(m) == nil {
			delete(c.shards, m)
		}
	}

	// Update the stale partials in parallel: each reads only the index's
	// shared read-only views (paths, per-unit records, the name lists)
	// and writes only its own partial, and the fold below walks shards in
	// sorted name order.
	type staleShard struct {
		mod string
		sh  *artifact.Shard
		as  *archShard
		// full: re-resolve every call, not only the moved counts.
		full bool
	}
	var stale []staleShard
	for _, m := range names {
		sh := ix.Shard(m)
		as := c.shards[m]
		if as == nil {
			as = &archShard{byCallee: make(map[string]int), calls: make(map[string]int)}
			c.shards[m] = as
		}
		full := as.gen == 0 || resolveAll || as.callsAny(moved)
		if full || as.gen != sh.Gen() {
			stale = append(stale, staleShard{m, sh, as, full})
		}
	}
	par.For(par.Workers(len(stale)), len(stale), func(k int) {
		d := stale[k]
		var diff map[string]int
		if !d.full {
			diff = make(map[string]int)
		}
		if d.as.gen != d.sh.Gen() {
			d.as.update(ix, d.sh, diff)
		}
		if d.full {
			d.as.resolve(ix, d.mod)
		} else {
			d.as.resolveDiff(ix, d.mod, diff)
		}
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

// update brings the content counters to the shard's current files by
// difference: it merge-walks the counted paths against the shard's
// (artifact.Index.WalkShard), subtracts the counted records of every
// file removed or whose unit generation moved, and adds the current
// records of every file replaced or added. When diff is non-nil it
// receives the net change of each callee name's call count. It reads no
// source.
func (as *archShard) update(ix *artifact.Index, sh *artifact.Shard, diff map[string]int) {
	old := as.recs
	as.recs = make([][]*artifact.Func, sh.Len())
	as.gens = ix.WalkShard(sh, as.paths, as.gens, func(i, j int, same bool) {
		if same {
			as.recs[j] = old[i]
			return
		}
		if i >= 0 {
			as.count(old[i], -1, diff) // replaced or removed
		}
		if j >= 0 {
			as.recs[j] = ix.UnitFuncs(sh.Paths()[j])
			as.count(as.recs[j], 1, diff)
		}
	})
	as.paths = slices.Clone(sh.Paths()) // Apply edits the shard's list in place
	if as.lostMax {
		as.maxPar = 0
		for _, fas := range as.recs {
			for _, fa := range fas {
				as.maxPar = max(as.maxPar, fa.Params)
			}
		}
		as.lostMax = false
	}
	as.gen = sh.Gen()
}

// count adds one file's records (sign +1) to or subtracts them (sign
// -1) from the content counters, deleting callee counts that reach
// zero. A subtracted record holding maxPar marks it lost; update
// rescans for it.
func (as *archShard) count(fas []*artifact.Func, sign int, diff map[string]int) {
	for _, fa := range fas {
		as.nFuncs += sign
		as.sumPar += sign * fa.Params
		switch {
		case sign > 0 && fa.Params > as.maxPar:
			as.maxPar = fa.Params
		case sign < 0 && fa.Params == as.maxPar:
			as.lostMax = true
		}
		for k, callee := range fa.Calls {
			if schedulingAPIs[callee] {
				as.threads += sign
			}
			if interruptAPIs[callee] {
				as.irqs += sign
			}
			name := fa.Callees[k]
			if as.byCallee[name] += sign; as.byCallee[name] == 0 {
				delete(as.byCallee, name)
			}
			if diff != nil {
				diff[name] += sign
			}
		}
	}
}

// resolve maps all the shard's calls to target modules, resolving each
// distinct callee name once.
func (as *archShard) resolve(ix *artifact.Index, mod string) {
	as.internal, as.external = 0, 0
	clear(as.calls)
	as.resolveDiff(ix, mod, as.byCallee)
}

// resolveDiff adds the signed call counts of diff, per callee name, to
// the calls resolved to each target module, deleting targets whose
// count reaches zero (FanOut and FanIn count the keys). Names are
// resolved against the current index, so a name whose module moved
// since the calls were resolved must be re-resolved in full (resolve).
func (as *archShard) resolveDiff(ix *artifact.Index, mod string, diff map[string]int) {
	for name, n := range diff {
		if n == 0 {
			continue
		}
		tgt, ok := ix.FuncModule(name)
		if !ok {
			continue
		}
		if as.calls[tgt] += n; as.calls[tgt] == 0 {
			delete(as.calls, tgt)
		}
		if tgt == mod {
			as.internal += n
		} else {
			as.external += n
		}
	}
}
