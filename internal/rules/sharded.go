package rules

import (
	"slices"
	"sort"

	"repro/internal/artifact"
	"repro/internal/par"
)

// This file implements the sharded incremental rule engine, the one rule
// engine: a cold run (rules.Run, a fresh engine's first Run) and every
// warm run of core.Assessor go through it. It caches per-file findings
// and rides the artifact index's module shards, its per-unit generations
// (artifact.Index.UnitGen) and its per-name change feed
// (artifact.Index.ChangesSince):
//
//   - dirty detection consults per-shard generations, so a warm run
//     looks only at the files of shards a delta touched, and within
//     them re-checks a file only when its unit generation moved;
//   - a file depends on a cross-file fact only through a name its source
//     spells (see the Registrar contract), so when the feed reports that
//     a name's callee voidness or global membership moved, exactly the
//     files spelling that name at identifier boundaries are re-checked —
//     fact stubs included, so only those get hydrated. The index's
//     identifier postings (artifact.Index.Spellers) name those files, so
//     finding them costs O(readers), however many names moved;
//   - each shard keeps a presorted finding segment (its files' cached
//     findings concatenated in shard path order, with per-file offsets),
//     copied afresh only when one of its files was re-checked;
//   - the recursion rule's on-cycle set, the corpus segment, is kept
//     across runs and updated from the changed call-graph nodes and the
//     changed files (cycleCache);
//   - the finding statistics are one running count set, kept by
//     difference: a warm run subtracts the cached findings of every
//     re-checked or dropped file and adds the new lists (Stats.count),
//     so its cost follows the files it re-checked, not their shards;
//   - the global finding stream is a k-way merge of the shard segments
//     (plus the corpus segment), byte-identical to the sequential
//     reference engine because every segment is sorted under the same
//     findingLess total order RunSequential sorts with. Update leaves
//     the merge to Findings, so a caller that reads only Stats (an
//     assessment after a delta) never copies the whole stream.
//
// A run re-checks every file instead (LastFullRecheck) when the engine
// fell further behind the feed than it retains; it never serves stale
// output.
//
// Output equivalence with RunSequential over the same context is pinned
// by TestShardedMatchesColdRun and exercised at scale by the
// differential harness (internal/difftest).
type Sharded struct {
	// Hydrate, when set, is called with the dirty paths of a warm run
	// before their (re-)walk. core.Assessor installs it to re-parse
	// stub units on demand: stubs (restored, or demoted after an
	// assessment) carry analysis facts but no statement bodies, and the
	// fused walk needs real ASTs. The hook runs at a sequential point
	// of Run (before any worker starts), so it may replace index
	// entries in place.
	Hydrate func(paths []string)

	rules []Rule
	cyc   *cycleCache // nil when the rule set has no RecursionRule

	ix *artifact.Index
	// seen is the index generation of the previous Update.
	seen uint64

	shards map[string]*shardSeg

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
	lastFullRecheck bool
}

// shardSeg is the engine's cached state for one module shard, laid out
// positionally as the snapshot's finding block is: the shard's sorted
// paths when the segment was built, the unit generation each file's
// findings were computed at, and offsets into the presorted segment.
// A cold run, a warm rebuild and a snapshot restore all fill it the
// same way (fill).
type shardSeg struct {
	gen    uint64 // artifact shard generation this segment matches; 0 = never built
	sealed bool   // filled by RestoreCache and not rebuilt since
	paths  []string
	gens   []uint64
	off    []int // file i's findings are seg[off[i]:off[i+1]]
	seg    []Finding
}

// findings returns file i's cached findings (capacity-clipped, so an
// append by a reader cannot reach the next file's entries).
func (seg *shardSeg) findings(i int) []Finding {
	return seg.seg[seg.off[i]:seg.off[i+1]:seg.off[i+1]]
}

// fill rebuilds the segment from per-file finding lists aligned with the
// shard's current paths, at the given unit generations. The segment is
// a fresh copy, because readers hold views of the previous one.
// Distinct segments may fill concurrently.
func (seg *shardSeg) fill(sh *artifact.Shard, gens []uint64, files [][]Finding) {
	total := 0
	for _, fs := range files {
		total += len(fs)
	}
	seg.paths = slices.Clone(sh.Paths()) // Apply edits the shard's list in place
	seg.gens = gens
	seg.off = make([]int, len(files)+1)
	seg.seg = make([]Finding, 0, total)
	for i, fs := range files {
		seg.seg = append(seg.seg, fs...)
		seg.off[i+1] = len(seg.seg)
	}
	seg.gen, seg.sealed = sh.Gen(), false
}

// NewSharded creates a sharded incremental engine over the given rule
// set. Run reads the artifact index and the per-unit function lists
// behind its context, so the context must come from NewContext or
// NewContextFromIndex.
func NewSharded(rs []Rule) *Sharded {
	s := &Sharded{rules: rs, shards: make(map[string]*shardSeg)}
	for _, r := range rs {
		if rr, ok := r.(*RecursionRule); ok && s.cyc == nil {
			s.cyc = &cycleCache{rule: rr}
		}
	}
	return s
}

// LastDirty returns the number of files the previous Update re-checked
// (every file on a cold or invalidated run).
func (s *Sharded) LastDirty() int { return s.lastDirty }

// LastFullRecheck reports whether the previous warm Update re-checked
// every file because it fell behind the index change feed.
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
// with the context's index: a warm update after a delta re-checks only
// the files whose unit generation moved and the files spelling a name
// whose cross-file facts moved, re-copies only their shards' segments,
// and moves the counts by those files' differences.
func (s *Sharded) Update(ctx *Context) {
	s.lastFullRecheck = false
	ix := ctx.Index
	invalidate := ix != s.ix
	var changes map[string]artifact.Change
	if invalidate {
		s.reset(ix)
	} else if ix.Gen() != s.seen {
		var ok bool
		if changes, ok = s.changesSince(ix); !ok {
			invalidate, s.lastFullRecheck = true, true
			if s.cyc != nil {
				s.cyc.ok = false
			}
		}
	}
	indexMoved := ix.Gen() != s.seen
	s.seen = ix.Gen()

	// A warm run collects in diff the net difference of the files it
	// re-checks or drops: their cached findings subtracted, their new
	// ones added. A run that re-checks every file rebuilds the counts
	// from zero instead, as a cold run does, so it only adds.
	diff := newStats()
	if invalidate {
		s.counts = diff
	}
	sub := func(fs []Finding) {
		if !invalidate {
			diff.count(fs, -1)
		}
	}
	// touched lists the dropped paths, and then the re-checked ones, for
	// the on-cycle set's champion checks.
	var touched []string
	drop := func(seg *shardSeg, i int) {
		sub(seg.findings(i))
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

	// Files spelling a name whose per-file-visible facts moved, by shard.
	var spelled map[string][]string
	if !invalidate {
		spelled = spellingFiles(ctx, spellKeys(changes))
	}

	// Plan the rebuild of every shard whose generation moved or that has
	// readers of a changed name: merge-walk the cached and current sorted
	// path lists (artifact.Index.WalkShard), reuse a file's findings when
	// its path and unit generation match and it spells no changed name,
	// re-check the rest, and subtract the cached findings of every file
	// re-checked or gone.
	type plan struct {
		seg   *shardSeg
		sh    *artifact.Shard
		gens  []uint64
		files [][]Finding
	}
	type slot struct{ plan, file int }
	var plans []plan
	var dirtyPaths []string
	var dirtySlots []slot
	for _, m := range names {
		sh := ix.Shard(m)
		seg := s.shards[m]
		if seg == nil {
			seg = &shardSeg{}
			s.shards[m] = seg
		}
		hits := spelled[m]
		if !invalidate && seg.gen == sh.Gen() && len(hits) == 0 {
			continue // clean shard: segment reused as-is
		}
		pl := plan{seg: seg, sh: sh, files: make([][]Finding, sh.Len())}
		k := 0 // cursor into hits
		pl.gens = ix.WalkShard(sh, seg.paths, seg.gens, func(i, j int, same bool) {
			if j < 0 {
				drop(seg, i)
				return
			}
			p := sh.Paths()[j]
			hit := k < len(hits) && hits[k] == p
			if hit {
				k++
			}
			if same && !invalidate && !hit {
				pl.files[j] = seg.findings(i)
				return
			}
			if i >= 0 {
				sub(seg.findings(i))
			}
			dirtyPaths = append(dirtyPaths, p)
			dirtySlots = append(dirtySlots, slot{len(plans), j})
		})
		plans = append(plans, pl)
	}
	s.lastDirty = len(dirtyPaths)
	if s.Hydrate != nil && len(dirtyPaths) > 0 {
		s.Hydrate(dirtyPaths)
	}

	// Re-check the dirty files (parallel across shards), each file's
	// findings pre-sorted: within a file the findingLess order is
	// self-contained, so shard segments concatenate without re-sorting.
	for k, fs := range runUnits(ctx, s.rules, dirtyPaths) {
		sortFindings(fs)
		plans[dirtySlots[k].plan].files[dirtySlots[k].file] = fs
		diff.count(fs, 1)
	}

	// Corpus-level output: the recursion rule's on-cycle set follows the
	// feed and the touched files.
	if s.cyc != nil && (!s.cyc.ok || indexMoved) {
		left, came := s.cyc.update(ctx, changes, append(touched, dirtyPaths...))
		s.corpusSeg = s.cyc.seg
		if !invalidate {
			diff.count(left, -1)
			diff.count(came, 1)
		}
	}
	if invalidate {
		diff.count(s.corpusSeg, 1)
	}
	s.haveCorpus = true

	// Rebuild the planned shards' segments in parallel: each reads only
	// its own plan and writes only its own segment, and the merge walks
	// shards in sorted name order, so output is scheduling-independent.
	par.For(par.Workers(len(plans)), len(plans), func(k int) {
		plans[k].seg.fill(plans[k].sh, plans[k].gens, plans[k].files)
	})

	// Collect the per-shard segments (and the corpus segment) for
	// Findings to merge.
	segs := make([][]Finding, 0, len(names)+1)
	if len(s.corpusSeg) > 0 {
		segs = append(segs, s.corpusSeg)
	}
	for _, m := range names {
		if seg := s.shards[m]; len(seg.seg) > 0 {
			segs = append(segs, seg.seg)
		}
	}
	s.segs = segs

	// Publish a new Stats only when a count moved: a body edit that
	// keeps its file's findings leaves the published value as it was.
	moved := invalidate || s.stats == nil
	if !invalidate && !diff.empty() {
		s.counts.apply(diff)
		moved = true
	}
	if moved {
		s.stats = s.counts.clone()
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

// spellKeys returns the sorted, deduplicated identifiers (identKey) of
// the names whose per-file-visible facts — callee voidness, global
// membership — moved.
func spellKeys(changes map[string]artifact.Change) []string {
	var keys []string
	for name, what := range changes {
		if what&artifact.FileFacts != 0 {
			keys = append(keys, identKey(name))
		}
	}
	sort.Strings(keys)
	return slices.Compact(keys)
}

// spellingFiles returns, per shard in the shard's path order, the files
// whose source spells one of keys at identifier boundaries, read from
// the index's identifier postings (artifact.Index.Spellers). Per-file
// handlers read cross-file facts only through names spelled in their
// own file (the Registrar contract), so every other file's cached
// findings stay valid. The postings are built on the first call with a
// key, so a run that moved no per-file fact never builds them.
func spellingFiles(ctx *Context, keys []string) map[string][]string {
	if len(keys) == 0 {
		return nil
	}
	var paths []string
	for _, key := range keys {
		paths = append(paths, ctx.Index.Spellers(key)...)
	}
	sort.Strings(paths)
	out := make(map[string][]string)
	for _, p := range slices.Compact(paths) {
		m := ctx.Units[p].File.ModuleName()
		out[m] = append(out[m], p)
	}
	return out
}

// identKey returns the identifier to look up when a name changed: the
// name itself when it is one identifier, otherwise its first identifier
// run (a destructor's class name, a template name before its arguments,
// "operator"), which every spelling of the name contains. A name with
// no identifier characters yields "", which selects every file.
func identKey(name string) string {
	i := 0
	for i < len(name) && !artifact.IsIdentByte(name[i]) {
		i++
	}
	j := i
	for j < len(name) && artifact.IsIdentByte(name[j]) {
		j++
	}
	return name[i:j]
}

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
