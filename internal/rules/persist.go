package rules

import (
	"repro/internal/artifact"
	"repro/internal/par"
)

// This file is the sharded engine's persistence boundary. The engine's
// warm state is, per file, the cached finding list, plus the
// corpus-level segment. Everything else it holds (per-shard segments,
// stats partials, unit generations, the recursion rule's on-cycle set)
// is derivable from those lists and the artifact index, so the snapshot
// stores only the finding lists and RestoreCache rebuilds the rest
// against the restored index.

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

// ExportCache returns the engine's cached per-file finding lists (one
// entry per indexed path of every shard not in skip, possibly empty)
// and the corpus-level segment. It reports ok=false when the engine
// holds no complete warm state for its current index — callers run the
// engine once (core.Assessor.Findings) before snapshotting. The
// returned slices are views of live cache segments; callers must not
// mutate them.
func (s *Sharded) ExportCache(skip map[string]bool) (perFile map[string][]Finding, corpus []Finding, ok bool) {
	if s.ix == nil || !s.haveCorpus {
		return nil, nil, false
	}
	perFile = make(map[string][]Finding, len(s.ix.Paths))
	for _, m := range s.ix.ShardNames() {
		if skip[m] {
			continue
		}
		seg := s.shards[m]
		if seg == nil || seg.gen != s.ix.Shard(m).Gen() {
			return nil, nil, false
		}
		for i, p := range seg.paths {
			perFile[p] = seg.findings(i)
		}
	}
	return perFile, s.corpusSeg, true
}

// RestoreCache seeds the engine against a freshly restored index: every
// shard in shards (per-path finding lists, one per path of the shard in
// its sorted order) is filled exactly as a cold run fills it and marked
// sealed. A shard missing from shards is left empty, so the first Run
// re-checks exactly that shard.
// The recursion rule's on-cycle set is read back from the corpus
// segment, so the first graph change after restore updates it instead
// of re-running the corpus-wide SCC.
func (s *Sharded) RestoreCache(ix *artifact.Index, corpus []Finding, shards map[string][][]Finding) {
	s.reset(ix)
	s.haveCorpus = true
	s.corpusSeg = corpus
	s.corpusStat = Aggregate(corpus)
	s.otherSeg = nil
	for _, f := range corpus {
		if s.cyc == nil || f.RuleID != s.cyc.rule.ID() {
			s.otherSeg = append(s.otherSeg, f)
		}
	}
	if s.cyc != nil {
		s.cyc.seed(corpus, ix.ByName)
	}
	names := ix.ShardNames()
	segs := make([]*shardSeg, len(names))
	par.For(par.Workers(len(names)), len(names), func(k int) {
		sh := ix.Shard(names[k])
		if files, ok := shards[names[k]]; ok {
			segs[k] = &shardSeg{}
			segs[k].fill(sh, unitGens(ix, sh), files)
			segs[k].sealed = true
		}
	})
	for k, seg := range segs {
		if seg != nil {
			s.shards[names[k]] = seg
		}
	}
	// s.stats is only read after a Run, which folds the partials.
	s.stats = nil
	s.lastDirty = 0
}
