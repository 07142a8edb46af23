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
// condition — rebuilds the shard, so a sealed shard's lists are exactly
// the snapshot's.
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
	return s.corpusSeg, s.ix != nil
}

// RestoreCache seeds the engine against a freshly restored index. A
// shard present in both shards (one finding list per path of the shard,
// in its sorted order) and conds (its Conditions, each Func indexing the
// unit's function list) is filled from them and marked sealed; every
// other shard's files were walked afresh because its stored lists were
// unusable, and it is filled from their walks as a cold load fills it
// (Fill), unsealed. Every name gets its truth value from the restored
// index. The engine keeps corpus itself as its corpus segment, and each
// stored shard's Off as its offsets, so the caller must not write them
// afterwards. The recursion rule's on-cycle set is read back from the
// corpus segment, so the first graph change after restore updates it
// instead of re-running the corpus-wide SCC; the segment records no
// components, so that update roots Tarjan at every on-cycle name, once.
func (s *Sharded) RestoreCache(ix *artifact.Index, corpus []Finding, shards map[string][][]Finding, conds map[string]*Conditions, walks map[string]FileWalk) {
	s.reset(ix)
	ctx := NewContextFromIndex(ix)
	s.corpusSeg = corpus
	if s.cyc != nil {
		s.cyc.seed(corpus, ix.ByName)
	}
	s.fill(ctx, shards, conds, walks)
}

// Fill seeds the engine against a freshly built index from the walk of
// every file (a cold load, or rules.Run), keyed by path: the restore
// fill (RestoreCache) fed fresh walks instead of stored lists. Each
// condition name is evaluated once against the index, and the findings
// of the conditions that hold are merged into their files' lists. The
// recursion rule runs its SCC over every defined name, once, and records
// the components it finds, so a later graph change roots Tarjan only at
// the components it touches. No shard is sealed: none came from a
// snapshot.
func (s *Sharded) Fill(ix *artifact.Index, walks map[string]FileWalk) {
	s.reset(ix)
	ctx := NewContextFromIndex(ix)
	if s.cyc != nil {
		s.cyc.full(ctx)
		s.corpusSeg = s.cyc.seg
	}
	s.fill(ctx, nil, nil, walks)
}

// fill is the one shard fill of RestoreCache and Fill: it maps every
// stored shard's condition names to the engine's ids, holds the
// conditions of every other shard's files' walks (creating an id
// evaluates its name once), then fills the segments in parallel, merging
// into each walked file's list the findings of its conditions that
// hold. It fails closed: a file of a shard with no stored lists and no
// walk panics. The counts are built from zero by adding the corpus
// segment and every filled list, and Stats is published.
func (s *Sharded) fill(ctx *Context, shards map[string][][]Finding, conds map[string]*Conditions, walks map[string]FileWalk) {
	ix := ctx.Index
	s.counts = Aggregate(s.corpusSeg)
	names := ix.ShardNames()
	type input struct {
		seg   *shardSeg
		files [][]Finding
		walks []FileWalk
	}
	ins := make([]input, len(names))
	s.lastDirty, s.lastConds = 0, 0
	for k, m := range names {
		seg := &shardSeg{readers: make(map[uint32]int)}
		c := conds[m]
		if shards[m] == nil || c == nil {
			paths := ix.Shard(m).Paths()
			w := make([]FileWalk, len(paths))
			held := make([][]Cond, len(paths))
			for i, p := range paths {
				fw, ok := walks[p]
				if !ok {
					panic("rules: no walk of file " + p + " of a shard with no stored lists")
				}
				w[i], held[i] = fw, s.hold(ctx, seg, fw.conds)
			}
			seg.coff, seg.conds = concat(held)
			ins[k] = input{seg: seg, walks: w}
			s.lastDirty += len(w)
			continue
		}
		// Map the shard's names to the engine's ids and count them.
		seg.coff, seg.conds = c.Off, slices.Clone(c.Conds)
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
		ins[k] = input{seg: seg, files: shards[m]}
	}
	par.For(par.Workers(len(names)), len(names), func(k int) {
		in := &ins[k]
		sh := ix.Shard(names[k])
		if in.walks != nil {
			in.files = make([][]Finding, len(in.walks))
			for i, fw := range in.walks {
				cs := in.seg.condsOf(i)
				in.files[i] = fw.withHeld(ix.UnitFuncs(sh.Paths()[i]), func(j int) bool {
					return s.names.by[cs[j].Name].truth
				})
			}
		}
		in.seg.fill(sh, ix.UnitGens(sh), in.files, nil, false)
		in.seg.sealed = in.walks == nil
	})
	for k, in := range ins {
		s.shards[names[k]] = in.seg
		s.counts.count(in.seg.seg, 1)
	}
	s.collect(names)
	s.stats = s.counts.clone()
}
