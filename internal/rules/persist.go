package rules

import (
	"repro/internal/artifact"
	"repro/internal/par"
)

// This file is the sharded engine's persistence boundary. The engine's
// warm state is, per file, the cached finding list, plus the
// corpus-level segment. Everything else it holds (per-shard segments,
// the finding counts, unit generations, the recursion rule's on-cycle
// set) is derivable from those lists and the artifact index, so the
// snapshot stores only the finding lists and RestoreCache rebuilds the
// rest against the restored index.

// Sealed reports whether a module's shard is still sealed: filled by
// RestoreCache, never rebuilt since, and valid at the shard's current
// generation. Every kind of dirtying — a content change, a re-check of
// files spelling a changed name, a full re-check, a block left out of
// the fill — rebuilds the shard, so a sealed shard's finding lists are
// exactly the snapshot's.
func (s *Sharded) Sealed(module string) bool {
	if s.ix == nil {
		return false
	}
	sh, seg := s.ix.Shard(module), s.shards[module]
	return sh != nil && seg != nil && seg.sealed && seg.gen == sh.Gen()
}

// ShardFindings returns a module shard's cached finding lists, one per
// path of the shard in its sorted order, or ok=false when the shard
// holds no warm state for the engine's current index — callers Update
// the engine once before snapshotting. The lists are views of the
// shard's segment, which the engine never writes again (every rebuild
// fills a fresh one); callers must not mutate them.
func (s *Sharded) ShardFindings(module string) ([][]Finding, bool) {
	if s.ix == nil {
		return nil, false
	}
	sh, seg := s.ix.Shard(module), s.shards[module]
	if sh == nil || seg == nil || seg.gen != sh.Gen() {
		return nil, false
	}
	out := make([][]Finding, len(seg.paths))
	for i := range out {
		out[i] = seg.findings(i)
	}
	return out, true
}

// CorpusFindings returns the corpus-level finding segment, or ok=false
// before the engine has run on its current index. Like ShardFindings it
// is a view that is replaced, never written, by later runs.
func (s *Sharded) CorpusFindings() ([]Finding, bool) {
	return s.corpusSeg, s.ix != nil && s.haveCorpus
}

// RestoreCache seeds the engine against a freshly restored index: every
// shard in shards (per-path finding lists, one per path of the shard in
// its sorted order) is filled exactly as a cold run fills it and marked
// sealed. A shard missing from shards is left empty, so the first Update
// re-checks exactly that shard. The engine keeps corpus itself as its
// corpus segment, so the caller must not write it afterwards (Stream).
// The recursion rule's on-cycle set is read back from the corpus
// segment, so the first graph change after restore updates it instead
// of re-running the corpus-wide SCC; the segment records no components,
// so that update roots Tarjan at every on-cycle name, once. The counts are built from zero by
// adding every restored list, as a cold run adds every checked one.
func (s *Sharded) RestoreCache(ix *artifact.Index, corpus []Finding, shards map[string][][]Finding) {
	s.reset(ix)
	s.haveCorpus = true
	s.corpusSeg = corpus
	s.counts = Aggregate(corpus)
	if s.cyc != nil {
		s.cyc.seed(corpus, ix.ByName)
	}
	names := ix.ShardNames()
	segs := make([]*shardSeg, len(names))
	par.For(par.Workers(len(names)), len(names), func(k int) {
		sh := ix.Shard(names[k])
		if files, ok := shards[names[k]]; ok {
			segs[k] = &shardSeg{}
			segs[k].fill(sh, ix.UnitGens(sh), files)
			segs[k].sealed = true
		}
	})
	for k, seg := range segs {
		if seg != nil {
			s.shards[names[k]] = seg
			s.counts.count(seg.seg, 1)
		}
	}
	s.lastDirty = 0
}
