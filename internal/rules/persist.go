package rules

import (
	"repro/internal/artifact"
)

// This file is the sharded engine's persistence boundary. The engine's
// warm state is, per file, the cached finding list keyed by content
// hash, plus the corpus-level segment. Everything else it holds
// (per-shard segments, stats partials, the recursion rule's on-cycle
// set) is derivable from those lists and the artifact index, so the
// snapshot stores only the finding lists and RestoreCacheLazy rebuilds
// the rest against the restored index on demand.

// Sealed reports whether a module's shard is still sealed: restored
// lazily (RestoreCacheLazy), never dirtied since, and valid at the
// shard's current generation. Every kind of dirtying — a content
// change, a re-check of files spelling a changed name, a full re-check,
// a block that would not decode — drops the shard's loaders, so a
// sealed shard's finding lists are exactly the snapshot's.
func (s *Sharded) Sealed(module string) bool {
	if s.ix == nil {
		return false
	}
	sh, seg := s.ix.Shard(module), s.shards[module]
	return sh != nil && seg != nil && seg.valid && seg.load != nil && seg.gen == sh.Gen()
}

// ExportCache returns the engine's cached per-file finding lists (one
// entry per indexed path of every shard not in skip, possibly empty)
// and the corpus-level segment. It reports ok=false when the engine
// holds no complete warm state for its current index — callers run the
// engine once (core.Assessor.Findings) before snapshotting. A sealed
// shard is exported through its loader, not thawed: it hashes nothing
// and stays sealed, so the next export can skip it again. The returned
// slices are live cache entries or loader output; callers must not
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
		sh := s.ix.Shard(m)
		seg := s.shards[m]
		if seg == nil || !seg.valid || seg.gen != sh.Gen() {
			return nil, nil, false
		}
		paths := sh.Paths()
		if seg.perFile == nil {
			fss, ok := seg.load()
			if !ok || len(fss) != len(paths) {
				return nil, nil, false
			}
			for i, p := range paths {
				perFile[p] = fss[i]
			}
			continue
		}
		for _, p := range paths {
			e, present := seg.perFile[p]
			if !present {
				return nil, nil, false
			}
			perFile[p] = e.findings
		}
	}
	return perFile, s.corpusSeg, true
}

// ShardLoader supplies a restored engine's per-shard warm state on
// demand — the lazy face of a snapshot (internal/store decodes one
// shard's block on first touch). Both methods report ok=false when the
// shard's block cannot be produced; the engine then treats the shard
// as cold and recomputes it, so a lazy-decode failure degrades to work,
// never to wrong output.
type ShardLoader interface {
	// ShardFindings returns the per-path finding lists of a module's
	// shard, aligned with the shard's snapshot-time sorted path list.
	ShardFindings(module string) ([][]Finding, bool)
	// ShardKeys returns the shard's snapshot-time paths and the content
	// hashes of the sources those findings were computed from. This is
	// the expensive half (hashing O(shard bytes)); the engine only calls
	// it when a delta actually dirties the shard.
	ShardKeys(module string) ([]string, []uint64, bool)
}

// RestoreCacheLazy seeds the engine against a freshly restored index
// without materializing any per-shard state: every shard starts sealed,
// holding only its generation and a loader. The first Run materializes
// each shard's finding segment (the merge needs every segment), but the
// per-file entry maps — and the content hashes behind them — stay
// deferred until a delta dirties the shard. On an unchanged corpus the
// restored engine therefore never hashes a single file. The recursion
// rule's on-cycle set is read back from the corpus segment, so the
// first graph change after restore updates it instead of re-running the
// corpus-wide SCC.
func (s *Sharded) RestoreCacheLazy(ix *artifact.Index, corpus []Finding, loader ShardLoader) {
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
	for _, m := range ix.ShardNames() {
		sh := ix.Shard(m)
		module := m
		s.shards[m] = &shardSeg{
			gen:   sh.Gen(),
			valid: true,
			load:  func() ([][]Finding, bool) { return loader.ShardFindings(module) },
			thaw:  func() ([]string, []uint64, bool) { return loader.ShardKeys(module) },
		}
	}
	// Per-shard stats fold lazily with the segments; s.stats is only
	// read after a Run, which materializes them first.
	s.stats = nil
	s.lastDirty = 0
}
