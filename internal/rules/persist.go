package rules

import (
	"slices"

	"repro/internal/artifact"
	"repro/internal/par"
)

// This file is the sharded engine's persistence boundary. The engine's
// warm state is, per file, the cached finding list and the conditions,
// plus the corpus-level segment. Everything else it holds (per-shard
// segments, the finding counts, the name table and its truth values,
// unit generations, the recursion rule's on-cycle set) is derivable from
// those and the artifact index, so the snapshot stores only the lists
// and RestoreCache rebuilds the rest against the restored index.

// Sealed reports whether a module's shard is still sealed: filled by
// RestoreCache, never rebuilt since, and valid at the shard's current
// generation. Every kind of dirtying — a content change, a flipped
// condition, a block left out of the fill — rebuilds the shard, so a
// sealed shard's lists are exactly the snapshot's.
func (s *Sharded) Sealed(module string) bool {
	if s.ix == nil {
		return false
	}
	sh, seg := s.ix.Shard(module), s.shards[module]
	return sh != nil && seg != nil && seg.sealed && seg.gen == sh.Gen()
}

// ShardFindings returns a module shard's cached finding lists and its
// conditions, one list of each per path of the shard in its sorted
// order, or ok=false when the shard holds no warm state for the engine's
// current index — callers Update the engine once before snapshotting.
// The finding lists and the conditions' offsets are views of the shard's
// state, which the engine never writes again (every rebuild fills fresh
// slices); callers must not mutate them. The conditions themselves are a
// copy naming the shard's names in order of first use.
func (s *Sharded) ShardFindings(module string) ([][]Finding, *Conditions, bool) {
	if s.ix == nil {
		return nil, nil, false
	}
	sh, seg := s.ix.Shard(module), s.shards[module]
	if sh == nil || seg == nil || seg.gen != sh.Gen() {
		return nil, nil, false
	}
	out := make([][]Finding, len(seg.paths))
	for i := range out {
		out[i] = seg.findings(i)
	}
	c := &Conditions{Conds: make([]Cond, len(seg.conds)), Off: seg.coff}
	local := make(map[uint32]uint32)
	for i, cd := range seg.conds {
		k, ok := local[cd.Name]
		if !ok {
			k = uint32(len(c.Names))
			local[cd.Name] = k
			c.Names = append(c.Names, s.names.by[cd.Name].CondName)
		}
		cd.Name = k
		c.Conds[i] = cd
	}
	return out, c, true
}

// CorpusFindings returns the corpus-level finding segment, or ok=false
// before the engine has run on its current index. Like ShardFindings it
// is a view that is replaced, never written, by later runs.
func (s *Sharded) CorpusFindings() ([]Finding, bool) {
	return s.corpusSeg, s.ix != nil && s.haveCorpus
}

// RestoreCache seeds the engine against a freshly restored index: every
// shard present in both shards (one finding list per path of the shard,
// in its sorted order) and conds (its Conditions, each Func indexing the
// unit's function list) is filled exactly as a cold run fills it and
// marked sealed; every name gets its truth value from the restored
// index. A shard missing from either is left empty, so the first Update
// walks exactly that shard. The engine keeps corpus itself as its corpus
// segment, and each shard's Off as its offsets, so the caller must not
// write them afterwards. The recursion rule's on-cycle set is read back
// from the corpus segment, so the first graph change after restore
// updates it instead of re-running the corpus-wide SCC; the segment
// records no components, so that update roots Tarjan at every on-cycle
// name, once. The counts are built from zero by adding every restored
// list, as a cold run adds every checked one.
func (s *Sharded) RestoreCache(ix *artifact.Index, corpus []Finding, shards map[string][][]Finding, conds map[string]*Conditions) {
	s.reset(ix)
	ctx := NewContextFromIndex(ix)
	s.haveCorpus = true
	s.corpusSeg = corpus
	s.counts = Aggregate(corpus)
	if s.cyc != nil {
		s.cyc.seed(corpus, ix.ByName)
	}
	names := ix.ShardNames()
	segs := make([]*shardSeg, len(names))
	for k, m := range names {
		c := conds[m]
		if shards[m] == nil || c == nil {
			continue
		}
		// Map the shard's names to the engine's ids and count them.
		seg := &shardSeg{readers: make(map[uint32]int), coff: c.Off, conds: slices.Clone(c.Conds)}
		n := make([]int, len(c.Names))
		for _, cd := range seg.conds {
			n[cd.Name]++
		}
		ids := make([]uint32, len(c.Names))
		for x, cn := range c.Names {
			if n[x] > 0 {
				ids[x] = s.names.id(ctx, cn)
				s.names.ref(ids[x], n[x])
				seg.readers[ids[x]] += n[x]
			}
		}
		for i := range seg.conds {
			seg.conds[i].Name = ids[seg.conds[i].Name]
		}
		segs[k] = seg
	}
	par.For(par.Workers(len(names)), len(names), func(k int) {
		if seg := segs[k]; seg != nil {
			sh := ix.Shard(names[k])
			seg.fill(sh, ix.UnitGens(sh), shards[names[k]], nil, false)
			seg.sealed = true
		}
	})
	for k, seg := range segs {
		if seg != nil {
			s.shards[names[k]] = seg
			s.counts.count(seg.seg, 1)
		}
	}
	s.lastDirty, s.lastConds = 0, 0
}
