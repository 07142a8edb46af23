package rules

import (
	"slices"
	"sort"

	"repro/internal/artifact"
	"repro/internal/par"
)

// This file implements the sharded incremental rule engine, the one rule
// engine: a cold run (rules.Run, a fresh engine's first Run), a cold
// load's fill from per-file walks (Fill, persist.go) and every warm run
// of core.Assessor go through it. It caches per-file findings
// and conditions (cond.go) and rides the artifact index's module shards,
// its per-unit generations (artifact.Index.UnitGen) and its per-name
// change feed (artifact.Index.ChangesSince):
//
//   - dirty detection consults per-shard generations, so a warm run
//     looks only at the files of shards a delta touched, and within
//     them walks a file only when its unit generation moved. Such a file
//     arrives parsed, and no other file is ever walked, so the engine
//     runs over fact stubs;
//   - a walk evaluates the file's conditions and merges the findings of
//     those that hold into the file's list. When the feed reports that
//     a name's callee voidness or global membership moved, the engine
//     re-evaluates that name's predicates in its name table (condTable)
//     and moves the list of each file holding a condition that flipped
//     by the finding the condition renders, inserted or removed. Each
//     shard counts its conditions per name, so only the shards reading
//     a flipped name are looked at, and no file is parsed or walked;
//   - each shard keeps a presorted finding segment (its files' cached
//     findings concatenated in shard path order, with per-file offsets),
//     copied afresh only when one of its files' lists was replaced;
//   - the recursion rule's on-cycle set, the corpus segment, is kept
//     across runs and updated from the changed call-graph nodes and the
//     changed files (cycleCache);
//   - the finding statistics are one running count set, kept by
//     difference: a warm run subtracts the cached findings of every
//     replaced or dropped list and adds the new lists (Stats.count),
//     so its cost follows the files it touched, not their shards;
//   - the global finding stream is a k-way merge of the shard segments
//     (plus the corpus segment), byte-identical to the sequential
//     reference engine because every segment is sorted under the same
//     findingLess total order RunSequential sorts with. Update leaves
//     the merge to Findings, so a caller that reads only Stats (an
//     assessment after a delta) never copies the whole stream.
//
// A run that fell further behind the feed than it retains
// (LastFullRecheck) re-evaluates every name of the table and re-runs the
// recursion rule's SCC instead; it never serves stale output.
//
// Output equivalence with RunSequential over the same context is pinned
// by TestShardedMatchesColdRun and exercised at scale by the
// differential harness (internal/difftest).
type Sharded struct {
	rules []Rule
	cyc   *cycleCache // nil when the rule set has no RecursionRule

	ix *artifact.Index
	// seen is the index generation of the previous Update.
	seen uint64

	shards map[string]*shardSeg
	// names is the table of what the shards' conditions wait on.
	names *condTable

	haveCorpus bool
	corpusSeg  []Finding // cyc's segment

	segs [][]Finding // the previous Update's sorted segments
	// counts are the statistics of the findings in segs, kept up to date
	// by difference; stats is the read-only copy Stats hands out,
	// replaced only when counts moved, so a caller writing its maps
	// cannot make counts drift.
	counts          *Stats
	stats           *Stats
	lastDirty       int
	lastConds       int
	lastFullRecheck bool
}

// shardSeg is the engine's cached state for one module shard, laid out
// positionally as the snapshot's finding block is: the shard's sorted
// paths when the segment was built, the unit generation each file's
// findings were computed at, offsets into the presorted segment, and the
// files' conditions laid out the same way. A cold run, a warm rebuild
// and a snapshot restore all fill it the same way (fill).
type shardSeg struct {
	gen    uint64 // artifact shard generation this segment matches; 0 = never built
	sealed bool   // filled by RestoreCache and not rebuilt since
	paths  []string
	gens   []uint64
	off    []int // file i's findings are seg[off[i]:off[i+1]]
	seg    []Finding
	// coff and conds hold file i's conditions at conds[coff[i]:coff[i+1]],
	// their names as ids into the engine's table; readers counts them
	// per id.
	coff    []int
	conds   []Cond
	readers map[uint32]int
}

// findings returns file i's cached findings (capacity-clipped, so an
// append by a reader cannot reach the next file's entries).
func (seg *shardSeg) findings(i int) []Finding {
	return seg.seg[seg.off[i]:seg.off[i+1]:seg.off[i+1]]
}

// condsOf returns file i's conditions.
func (seg *shardSeg) condsOf(i int) []Cond {
	return seg.conds[seg.coff[i]:seg.coff[i+1]:seg.coff[i+1]]
}

// fill rebuilds the segment from per-file finding and condition lists
// aligned with the shard's current paths, at the given unit generations.
// The finding segment is a fresh copy, because readers hold views of the
// previous one. No reader sees the conditions, so they are laid out
// again only when moved says a list changed. Distinct segments may fill
// concurrently.
func (seg *shardSeg) fill(sh *artifact.Shard, gens []uint64, files [][]Finding, conds [][]Cond, moved bool) {
	seg.paths = slices.Clone(sh.Paths()) // Apply edits the shard's list in place
	seg.gens = gens
	seg.off, seg.seg = concat(files)
	if moved {
		seg.coff, seg.conds = concat(conds)
	}
	seg.gen, seg.sealed = sh.Gen(), false
}

// concat lays lists out back to back in a fresh slice: list i is
// out[off[i]:off[i+1]].
func concat[T any](lists [][]T) (off []int, out []T) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	off = make([]int, len(lists)+1)
	out = make([]T, 0, total)
	for i, l := range lists {
		out = append(out, l...)
		off[i+1] = len(out)
	}
	return off, out
}

// NewSharded creates a sharded incremental engine over the given rule
// set. Run reads the artifact index and the per-unit function lists
// behind its context, so the context must come from NewContext or
// NewContextFromIndex.
func NewSharded(rs []Rule) *Sharded {
	s := &Sharded{rules: rs, shards: make(map[string]*shardSeg), names: newCondTable()}
	for _, r := range rs {
		if rr, ok := r.(*RecursionRule); ok && s.cyc == nil {
			s.cyc = &cycleCache{rule: rr}
		}
	}
	return s
}

// LastDirty returns the number of files the previous Update walked:
// every file on a cold run, then the files whose unit generation moved.
func (s *Sharded) LastDirty() int { return s.lastDirty }

// LastConditions returns the number of stored conditions whose predicate
// the previous Update re-evaluated because the change feed named it
// (every condition when it fell behind the feed).
func (s *Sharded) LastConditions() int { return s.lastConds }

// LastFullRecheck reports whether the previous warm Update fell behind
// the index change feed, so that it re-evaluated every condition and
// re-ran the recursion rule's SCC.
func (s *Sharded) LastFullRecheck() bool { return s.lastFullRecheck }

// Stats returns the finding statistics of the previous Update,
// identical to Aggregate over Findings. The value is shared and kept
// across Updates that move no count; callers must not modify it.
func (s *Sharded) Stats() *Stats { return s.stats }

// reset drops all engine state (new index ⇒ new corpus).
func (s *Sharded) reset(ix *artifact.Index) {
	s.ix = ix
	s.seen = ix.Gen()
	s.haveCorpus = false
	s.shards = make(map[string]*shardSeg)
	s.names = newCondTable()
	s.corpusSeg, s.segs = nil, nil
	s.counts, s.stats = nil, nil
	if s.cyc != nil {
		s.cyc.ok = false
	}
}

// changesSince folds the feed entries since the previous Update into one
// change set per name. ok is false when the feed no longer reaches back
// that far.
func (s *Sharded) changesSince(ix *artifact.Index) (map[string]artifact.Change, bool) {
	feed, ok := ix.ChangesSince(s.seen)
	if !ok {
		return nil, false
	}
	changes := make(map[string]artifact.Change, len(feed))
	for _, c := range feed {
		changes[c.Name] |= c.What
	}
	return changes, true
}

// Run executes the rules over the context and returns the global
// finding stream: Update, then Findings. Output is byte-identical to
// RunSequential over the same context.
func (s *Sharded) Run(ctx *Context) []Finding {
	s.Update(ctx)
	return s.Findings()
}

// Update brings the engine's per-shard segments and Stats up to date
// with the context's index: a warm update after a delta walks only the
// files whose unit generation moved, flips the conditions of the names
// whose facts moved, re-copies only the segments of shards whose lists
// moved, and moves the counts by those lists' differences.
func (s *Sharded) Update(ctx *Context) {
	s.lastFullRecheck = false
	ix := ctx.Index
	fresh := ix != s.ix
	var changes map[string]artifact.Change
	if fresh {
		s.reset(ix)
	} else if ix.Gen() != s.seen {
		var ok bool
		if changes, ok = s.changesSince(ix); !ok {
			s.lastFullRecheck = true
			if s.cyc != nil {
				s.cyc.ok = false
			}
		}
	}
	indexMoved := ix.Gen() != s.seen
	s.seen = ix.Gen()

	// Re-evaluate the predicates the feed names (all of them when the
	// engine fell behind it); the flipped ones move their files' lists.
	s.lastConds = s.names.flip(ctx, changes, s.lastFullRecheck)

	// A warm run collects in diff the net difference of the lists it
	// replaces or drops: their cached findings subtracted, their new
	// ones added. A cold run builds the counts from zero instead, so it
	// only adds.
	diff := newStats()
	if fresh {
		s.counts = diff
	}
	// touched lists the replaced and dropped paths, and then the walked
	// ones, for the on-cycle set's champion checks. released holds their
	// conditions, uncounted once the walks' are counted, so a name both
	// hold keeps its id.
	var touched []string
	type heldConds struct {
		seg   *shardSeg
		conds []Cond
	}
	var released []heldConds
	drop := func(seg *shardSeg, i int) {
		diff.count(seg.findings(i), -1)
		released = append(released, heldConds{seg, seg.condsOf(i)})
		touched = append(touched, seg.paths[i])
	}

	names := ix.ShardNames()
	var gone []string
	for m := range s.shards {
		if ix.Shard(m) == nil {
			gone = append(gone, m) // the shard no longer exists
		}
	}
	sort.Strings(gone)
	for _, m := range gone {
		for i := range s.shards[m].paths {
			drop(s.shards[m], i)
		}
		delete(s.shards, m)
	}

	// Plan the rebuild of every shard whose generation moved or that
	// reads a flipped name: merge-walk the cached and current sorted path
	// lists (artifact.Index.WalkShard), keep a file's findings when its
	// path and unit generation match (moved by its flipped conditions),
	// walk the rest, and subtract the cached findings of every file
	// walked or gone.
	type plan struct {
		seg   *shardSeg
		sh    *artifact.Shard
		gens  []uint64
		files [][]Finding
		conds [][]Cond // laid out anew only when moved
		moved bool     // a condition list changed
	}
	type slot struct{ plan, file, old int }
	var plans []plan
	var dirtyPaths []string
	var dirtySlots []slot
	for _, m := range names {
		sh := ix.Shard(m)
		seg := s.shards[m]
		if seg == nil {
			seg = &shardSeg{readers: make(map[uint32]int)}
			s.shards[m] = seg
		}
		flips := slices.ContainsFunc(s.names.flipped, func(id uint32) bool { return seg.readers[id] > 0 })
		if !fresh && seg.gen == sh.Gen() && !flips {
			continue // clean shard: segment reused as-is
		}
		pl := plan{seg: seg, sh: sh, files: make([][]Finding, sh.Len()), moved: seg.coff == nil}
		pl.gens = ix.WalkShard(sh, seg.paths, seg.gens, func(i, j int, same bool) {
			if same {
				fs, cs := seg.findings(i), seg.condsOf(i)
				if flips {
					if moved, ok := s.reflip(ix.UnitFuncs(sh.Paths()[j]), fs, cs); ok {
						diff.count(fs, -1)
						diff.count(moved, 1)
						fs = moved
					}
				}
				pl.files[j] = fs
				return
			}
			if i >= 0 {
				drop(seg, i)
			}
			if i < 0 || j < 0 {
				pl.moved = true // a file came or went
			}
			if j >= 0 {
				dirtyPaths = append(dirtyPaths, sh.Paths()[j])
				dirtySlots = append(dirtySlots, slot{len(plans), j, i})
			}
		})
		plans = append(plans, pl)
	}
	s.lastDirty = len(dirtyPaths)

	// Walk the dirty files (parallel across shards), each file's
	// findings pre-sorted: within a file the findingLess order is
	// self-contained, so shard segments concatenate without re-sorting.
	walked, conds := runUnits(ctx, s.rules, dirtyPaths)
	held := make([][]Cond, len(walked))
	for k, fs := range walked {
		sl := dirtySlots[k]
		pl := &plans[sl.plan]
		held[k] = s.hold(ctx, pl.seg, conds[k])
		if sl.old < 0 || !slices.Equal(held[k], pl.seg.condsOf(sl.old)) {
			pl.moved = true
		}
		pl.files[sl.file] = fs
		diff.count(fs, 1)
	}
	// A shard whose condition lists moved gets them laid out anew: the
	// kept files' from the segment, the walked files' just held. Name-
	// stable body edits, the common delta, move none.
	for k := range plans {
		if pl := &plans[k]; pl.moved {
			pl.conds = make([][]Cond, pl.sh.Len())
			ix.WalkShard(pl.sh, pl.seg.paths, pl.seg.gens, func(i, j int, same bool) {
				if same {
					pl.conds[j] = pl.seg.condsOf(i)
				}
			})
		}
	}
	for k, sl := range dirtySlots {
		if pl := &plans[sl.plan]; pl.moved {
			pl.conds[sl.file] = held[k]
		}
	}
	for _, r := range released {
		s.tally(r.seg, r.conds, -1)
	}

	// Corpus-level output: the recursion rule's on-cycle set follows the
	// feed and the touched files.
	if s.cyc != nil && (!s.cyc.ok || indexMoved) {
		left, came := s.cyc.update(ctx, changes, append(touched, dirtyPaths...))
		s.corpusSeg = s.cyc.seg
		if !fresh {
			diff.count(left, -1)
			diff.count(came, 1)
		}
	}
	if fresh {
		diff.count(s.corpusSeg, 1)
	}
	s.haveCorpus = true

	// Rebuild the planned shards' segments in parallel: each reads only
	// its own plan and writes only its own segment, and the merge walks
	// shards in sorted name order, so output is scheduling-independent.
	par.For(par.Workers(len(plans)), len(plans), func(k int) {
		pl := &plans[k]
		pl.seg.fill(pl.sh, pl.gens, pl.files, pl.conds, pl.moved)
	})

	s.collect(names)

	// Publish a new Stats only when a count moved: a body edit that
	// keeps its file's findings leaves the published value as it was.
	moved := fresh || s.stats == nil
	if !fresh && !diff.empty() {
		s.counts.apply(diff)
		moved = true
	}
	if moved {
		s.stats = s.counts.clone()
	}
}

// collect gathers the per-shard segments, in shard name order after the
// corpus segment, for Findings and Stream to merge.
func (s *Sharded) collect(names []string) {
	segs := make([][]Finding, 0, len(names)+1)
	if len(s.corpusSeg) > 0 {
		segs = append(segs, s.corpusSeg)
	}
	for _, m := range names {
		if seg := s.shards[m]; seg != nil && len(seg.seg) > 0 {
			segs = append(segs, seg.seg)
		}
	}
	s.segs = segs
}

// reflip returns a file's list fs with the finding of each of its
// conditions cs that flipped inserted (its predicate now holds) or
// removed (it no longer does), and ok=false when none flipped. funcs is
// the file's function list, which the conditions index. fs holds
// exactly the findings of the conditions that held, so a removed
// finding is always there; findings are values, and two conditions
// rendering equal findings stand for equal entries of fs.
func (s *Sharded) reflip(funcs []*FuncInfo, fs []Finding, cs []Cond) (out []Finding, ok bool) {
	for _, c := range cs {
		e := &s.names.by[c.Name]
		if !e.flipped {
			continue
		}
		if !ok {
			out, ok = slices.Clone(fs), true
		}
		f := e.finding(funcs[c.Func], int(c.Line))
		i := sort.Search(len(out), func(k int) bool { return !findingLess(&out[k], &f) })
		switch {
		case e.truth:
			out = slices.Insert(out, i, f)
		case i < len(out) && !findingLess(&f, &out[i]):
			out = slices.Delete(out, i, i+1)
		default:
			panic("rules: a condition that held has no finding in its file's list: " + f.String())
		}
	}
	return out, ok
}

// hold stores a walk's conditions with their names as the table's ids,
// and counts them.
func (s *Sharded) hold(ctx *Context, seg *shardSeg, conds []condAt) []Cond {
	if len(conds) == 0 {
		return nil
	}
	out := make([]Cond, len(conds))
	for i, c := range conds {
		out[i] = Cond{Name: s.names.id(ctx, c.CondName), Func: uint32(c.fn), Line: uint32(c.line)}
	}
	s.tally(seg, out, 1)
	return out
}

// tally adds d to the counts of each condition's id, in the table and in
// the shard's readers.
func (s *Sharded) tally(seg *shardSeg, conds []Cond, d int) {
	for _, c := range conds {
		s.names.ref(c.Name, d)
		if seg.readers[c.Name] += d; seg.readers[c.Name] == 0 {
			delete(seg.readers, c.Name)
		}
	}
}

// Findings returns the global finding stream as of the previous Update,
// merged afresh into a slice the caller may keep.
func (s *Sharded) Findings() []Finding { return mergeFindingSegments(s.segs) }

// Stream calls fn with consecutive runs of the stream Findings returns,
// in order, without copying it. Each run is a view of a segment, which
// the engine replaces and never writes, so fn must not modify it, and:
//
//   - a run is never empty;
//   - a run's elements are never written after it is yielded, by any
//     later Update or RestoreCache (fill and cycleCache.resort build
//     fresh slices, and RestoreCache's caller hands over its corpus
//     segment);
//   - a run with the same first element and length as an earlier run
//     the caller still holds has the same findings: holding it keeps
//     its segment from being freed, so no other segment can take its
//     address.
//
// The /findings body cache rests on these (TestStreamRunsNeverWritten):
// an engine that refilled a segment in place would have to key that
// cache otherwise.
func (s *Sharded) Stream(fn func([]Finding)) { mergeRuns(s.segs, fn) }

// mergeFindingSegments merges sorted finding segments into one sorted
// stream (mergeRuns) in a fresh slice.
func mergeFindingSegments(segs [][]Finding) []Finding {
	total := 0
	for _, sg := range segs {
		total += len(sg)
	}
	out := make([]Finding, 0, total)
	mergeRuns(segs, func(run []Finding) { out = append(out, run...) })
	return out
}

// mergeRuns merges sorted finding segments, calling emit with each run
// of the merged stream in order. Shard path ranges are normally
// disjoint, so the merge degrades to bulk runs: at each round the
// segment with the smallest head emits its prefix up to the smallest
// head among the other segments (found by binary search), giving
// O(#segments) comparisons per boundary crossing.
func mergeRuns(segs [][]Finding, emit func([]Finding)) {
	active := make([][]Finding, 0, len(segs))
	for _, sg := range segs {
		if len(sg) > 0 {
			active = append(active, sg)
		}
	}
	for len(active) > 1 {
		// Find the segment with the smallest head and the runner-up head.
		min := 0
		for i := 1; i < len(active); i++ {
			if findingLess(&active[i][0], &active[min][0]) {
				min = i
			}
		}
		next := -1
		for i := range active {
			if i == min {
				continue
			}
			if next < 0 || findingLess(&active[i][0], &active[next][0]) {
				next = i
			}
		}
		// Emit min's prefix of elements <= the runner-up head.
		cur := active[min]
		bound := &active[next][0]
		n := sort.Search(len(cur), func(i int) bool { return findingLess(bound, &cur[i]) })
		if n == 0 {
			n = 1 // heads compare equal: emit one and re-evaluate
		}
		emit(cur[:n:n])
		if n == len(cur) {
			active = append(active[:min], active[min+1:]...)
		} else {
			active[min] = cur[n:]
		}
	}
	if len(active) == 1 {
		emit(active[0][:len(active[0]):len(active[0])])
	}
}
