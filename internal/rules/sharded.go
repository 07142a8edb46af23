package rules

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/artifact"
	"repro/internal/par"
)

// This file implements the sharded incremental rule engine, the one rule
// engine: a cold run (rules.Run, a fresh engine's first Run) and every
// warm run of core.Assessor go through it. It caches per-file findings
// and rides the artifact index's module shards and its per-name change
// feed (artifact.Index.ChangesSince):
//
//   - dirty detection consults per-shard generations, so a warm run
//     hashes only the files of shards a delta touched;
//   - a file depends on a cross-file fact only through a name its source
//     spells (see the Registrar contract), so when the feed reports that
//     a name's callee voidness or global membership moved, exactly the
//     files spelling that name at identifier boundaries are re-checked —
//     restored stubs included, so only those get hydrated;
//   - each shard keeps a presorted finding segment (its files' cached
//     findings concatenated in shard path order) plus a Stats partial,
//     rebuilt in O(shard) only when one of its files was re-checked;
//   - the recursion rule's on-cycle set is kept across runs and updated
//     from the changed call-graph nodes (cycleCache); other corpus
//     hooks re-run after every index change;
//   - the global finding stream is a k-way merge of the shard segments
//     (plus the corpus segment), byte-identical to the sequential
//     reference engine because every segment is sorted under the same
//     findingLess total order RunSequential sorts with.
//
// A run re-checks every file instead (LastFullRecheck) when the engine
// fell further behind the feed than it retains, or when the feed names
// more than maxScanNames changed names; it never serves stale output.
//
// Output equivalence with RunSequential over the same context is pinned
// by TestShardedMatchesColdRun and exercised at scale by the
// differential harness (internal/difftest).
type Sharded struct {
	// Hydrate, when set, is called with the dirty paths of a warm run
	// before their (re-)walk. A snapshot-restored assessor installs it
	// to re-parse stub units on demand: restored units carry analysis
	// facts but no statement bodies, and the fused walk needs real
	// ASTs. The hook runs at a sequential point of Run (before any
	// worker starts), so it may replace index entries in place.
	Hydrate func(paths []string)

	rules []Rule
	// corpusRules holds the rules whose corpus hooks Run fires: every
	// rule but RecursionRule, which cyc maintains instead.
	corpusRules []Rule
	cyc         *cycleCache // nil when the rule set has no RecursionRule

	ix *artifact.Index
	// seen is the index generation of the previous Run.
	seen uint64

	shards map[string]*shardSeg

	haveCorpus bool
	otherSeg   []Finding // findings of corpusFused's corpus hooks
	corpusSeg  []Finding
	corpusStat *Stats

	stats           *Stats
	lastDirty       int
	lastFullRecheck bool
}

// incrEntry is one file's cached findings, keyed by the content hash of
// the source they were computed from.
type incrEntry struct {
	hash     uint64
	findings []Finding
}

// shardSeg is the engine's cached state for one module shard.
//
// A snapshot-restored segment starts *sealed*: valid at its shard's
// generation but holding neither the segment nor the per-file map —
// only the two loaders. The segment (and its stats partial)
// materializes at the first Run, because the global merge reads every
// segment; the per-file map and the content hashes inside it thaw only
// when a delta dirties the shard. perFile == nil is the sealed marker.
type shardSeg struct {
	gen     uint64 // artifact shard generation this segment matches
	valid   bool
	perFile map[string]incrEntry
	seg     []Finding
	stats   *Stats

	// load/thaw are the snapshot loaders of a sealed segment (nil on
	// segments that never went through a lazy restore). segReady records
	// that seg/stats were materialized from load; the loaders stay set
	// until thawEntries so a later dirtying can still build perFile.
	load     func() ([][]Finding, bool)
	thaw     func() ([]string, []uint64, bool)
	segReady bool
}

// materialize decodes a sealed segment's findings block and builds the
// merged segment plus its stats partial, leaving the per-file map (and
// its content hashes) deferred. Returns false when the block will not
// decode; the caller then recomputes the shard from scratch. Safe to
// run for distinct segments concurrently: loaders of distinct shards
// decode disjoint snapshot extents and every write is segment-local.
func (seg *shardSeg) materialize(sh *artifact.Shard) bool {
	fss, ok := seg.load()
	if !ok || len(fss) != sh.Len() {
		return false
	}
	total := 0
	for _, fs := range fss {
		total += len(fs)
	}
	seg.seg = make([]Finding, 0, total)
	for _, fs := range fss {
		seg.seg = append(seg.seg, fs...)
	}
	seg.stats = Aggregate(seg.seg)
	seg.segReady = true
	return true
}

// thawEntries materializes a sealed segment's per-file map from its
// loaders: the snapshot-time paths, the content hashes of the sources
// the findings came from, and the finding lists themselves. Returns
// false when the shard's block cannot be decoded — the caller then
// treats every file as dirty, which recomputes the shard instead of
// serving anything stale.
func (seg *shardSeg) thawEntries() bool {
	if seg.thaw == nil {
		return false
	}
	load, thaw := seg.load, seg.thaw
	seg.load, seg.thaw = nil, nil
	paths, hashes, ok := thaw()
	if !ok || len(paths) != len(hashes) {
		return false
	}
	fss, ok := load()
	if !ok || len(fss) != len(paths) {
		return false
	}
	seg.perFile = make(map[string]incrEntry, len(paths))
	for i, p := range paths {
		seg.perFile[p] = incrEntry{hash: hashes[i], findings: fss[i]}
	}
	return true
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
		} else {
			s.corpusRules = append(s.corpusRules, r)
		}
	}
	return s
}

// LastDirty returns the number of files the previous Run re-checked
// (every file on a cold or invalidated run).
func (s *Sharded) LastDirty() int { return s.lastDirty }

// LastFullRecheck reports whether the previous warm Run re-checked
// every file because it fell behind the index change feed or the feed
// named more than maxScanNames changed names.
func (s *Sharded) LastFullRecheck() bool { return s.lastFullRecheck }

// Stats returns the finding statistics of the previous Run, folded from
// the per-shard partials. Identical to Aggregate over the returned
// findings.
func (s *Sharded) Stats() *Stats { return s.stats }

// reset drops all engine state (new index ⇒ new corpus).
func (s *Sharded) reset(ix *artifact.Index) {
	s.ix = ix
	s.seen = ix.Gen()
	s.haveCorpus = false
	s.shards = make(map[string]*shardSeg)
	s.otherSeg, s.corpusSeg, s.corpusStat = nil, nil, nil
	if s.cyc != nil {
		s.cyc.ok = false
	}
}

// changesSince folds the feed entries since the previous Run into one
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

// Run executes the rules over the context. Output is byte-identical to
// RunSequential over the same context; a warm run after a delta
// re-checks only the content-changed files and the files spelling a name
// whose cross-file facts moved, and re-aggregates only their shards.
func (s *Sharded) Run(ctx *Context) []Finding {
	s.lastFullRecheck = false
	ix := ctx.Index
	invalidate := ix != s.ix
	var changes map[string]artifact.Change
	var keys []string // identifiers to scan the corpus for
	if invalidate {
		s.reset(ix)
	} else if ix.Gen() != s.seen {
		var ok bool
		if changes, ok = s.changesSince(ix); !ok {
			invalidate, s.lastFullRecheck = true, true
			if s.cyc != nil {
				s.cyc.ok = false
			}
		} else if keys = spellKeys(changes); len(keys) > maxScanNames {
			invalidate, s.lastFullRecheck = true, true
		}
	}
	indexMoved := ix.Gen() != s.seen
	s.seen = ix.Gen()

	names := ix.ShardNames()
	// Drop state for shards that no longer exist.
	if len(s.shards) > len(names) {
		live := make(map[string]bool, len(names))
		for _, m := range names {
			live[m] = true
		}
		for m := range s.shards {
			if !live[m] {
				delete(s.shards, m)
			}
		}
	}

	// Files spelling a name whose per-file-visible facts moved, by shard.
	var spelled map[string][]string
	if !invalidate {
		spelled = spellingFiles(ctx, names, keys)
	}

	// Materialize sealed clean shards' segments on a worker pool before
	// the scan: the first warm run after a lazy restore decodes one
	// snapshot block per shard, and the blocks are independent. The scan
	// below sees segReady and skips them; a shard whose block failed to
	// decode falls through to the inline retry-then-recompute path.
	if !invalidate {
		var sealed []*shardSeg
		var sealedSh []*artifact.Shard
		for _, m := range names {
			sh := ix.Shard(m)
			seg := s.shards[m]
			if seg != nil && seg.valid && seg.gen == sh.Gen() && seg.load != nil && !seg.segReady {
				sealed = append(sealed, seg)
				sealedSh = append(sealedSh, sh)
			}
		}
		par.For(par.Workers(len(sealed)), len(sealed), func(k int) {
			sealed[k].materialize(sealedSh[k])
		})
	}

	// Collect dirty files: within a shard whose generation moved, every
	// file whose content hash changed; in any shard, every file spelling
	// a changed name.
	var dirtyPaths []string
	var dirtyHash []uint64
	var rebuild []string // modules whose segments need rebuilding
	segOf := make(map[string]*shardSeg, len(names))
	markDirty := func(seg *shardSeg, p string, h uint64) {
		dirtyPaths = append(dirtyPaths, p)
		dirtyHash = append(dirtyHash, h)
		segOf[p] = seg
	}
	for _, m := range names {
		sh := ix.Shard(m)
		seg := s.shards[m]
		if seg == nil {
			seg = &shardSeg{perFile: make(map[string]incrEntry)}
			s.shards[m] = seg
		}
		hits := spelled[m]
		if invalidate {
			// Sealed or not, the cached findings may read cross-file facts
			// that moved: drop everything, including any not-yet-decoded
			// snapshot state.
			seg.load, seg.thaw, seg.segReady = nil, nil, false
			if seg.perFile == nil {
				seg.perFile = make(map[string]incrEntry)
			} else {
				clear(seg.perFile)
			}
			seg.valid = false
		} else if seg.valid && seg.gen == sh.Gen() {
			if seg.load != nil && !seg.segReady && !seg.materialize(sh) {
				// Sealed clean shard the parallel pre-pass could not
				// materialize, and one inline retry failed: the shard's
				// snapshot block would not decode, so forget it and
				// recompute the shard from scratch.
				seg.load, seg.thaw = nil, nil
				seg.perFile = make(map[string]incrEntry)
				seg.valid = false
			} else if len(hits) == 0 {
				continue // clean shard: segment and stats reused as-is
			} else if seg.perFile != nil || seg.thawEntries() {
				// Content-clean shard with readers of a changed name:
				// re-check exactly those files.
				for _, p := range hits {
					markDirty(seg, p, ctx.Units[p].File.Hash())
				}
				rebuild = append(rebuild, m)
				continue
			}
		}
		if seg.perFile == nil && !seg.thawEntries() {
			seg.perFile = make(map[string]incrEntry)
		}
		paths := sh.Paths()
		k := 0
		for _, p := range paths {
			h := ctx.Units[p].File.Hash()
			hit := k < len(hits) && hits[k] == p
			if hit {
				k++
			}
			if e, ok := seg.perFile[p]; !ok || e.hash != h || hit {
				markDirty(seg, p, h)
			}
		}
		if len(seg.perFile) > len(paths) {
			live := make(map[string]bool, len(paths))
			for _, p := range paths {
				live[p] = true
			}
			for p := range seg.perFile {
				if !live[p] {
					delete(seg.perFile, p)
				}
			}
		}
		rebuild = append(rebuild, m)
	}
	s.lastDirty = len(dirtyPaths)
	if s.Hydrate != nil && len(dirtyPaths) > 0 {
		s.Hydrate(dirtyPaths)
	}

	// Corpus-level output: the recursion rule's on-cycle set follows the
	// feed; any other corpus hook re-runs whenever the index moved (its
	// contract only promises purity over the index's cross-file views).
	corpusMoved := !s.haveCorpus
	if len(s.corpusRules) > 0 && (!s.haveCorpus || invalidate || indexMoved) {
		em := &Emitter{}
		if prog := runCorpusHooks(ctx, s.corpusRules, em); len(prog.corpus) == 0 {
			s.corpusRules = nil // no other corpus hooks: stop building the program
		}
		sortFindings(em.out)
		s.otherSeg = em.out
		corpusMoved = true
	}
	if s.cyc != nil && (!s.cyc.ok || indexMoved) {
		corpusMoved = s.cyc.update(ctx, changes) || corpusMoved
	}
	if corpusMoved {
		var cycSeg []Finding
		if s.cyc != nil {
			cycSeg = s.cyc.seg
		}
		s.corpusSeg = mergeFindingSegments([][]Finding{cycSeg, s.otherSeg})
		s.corpusStat = Aggregate(s.corpusSeg)
		s.haveCorpus = true
	}

	// Re-check the dirty files (parallel across shards) and cache each
	// file's findings pre-sorted: within a file the findingLess order is
	// self-contained, so shard segments concatenate without re-sorting.
	for k, fs := range runUnits(ctx, s.rules, dirtyPaths) {
		sortFindings(fs)
		segOf[dirtyPaths[k]].perFile[dirtyPaths[k]] = incrEntry{hash: dirtyHash[k], findings: fs}
	}

	// Rebuild the dirty shards' segments and stats partials in parallel:
	// each rebuild reads only its own per-file cache (fully populated
	// above) and writes only its own segment, and the merge below walks
	// shards in sorted name order, so output is scheduling-independent.
	par.For(par.Workers(len(rebuild)), len(rebuild), func(k int) {
		m := rebuild[k]
		sh := ix.Shard(m)
		seg := s.shards[m]
		total := 0
		for _, p := range sh.Paths() {
			total += len(seg.perFile[p].findings)
		}
		seg.seg = make([]Finding, 0, total)
		for _, p := range sh.Paths() {
			seg.seg = append(seg.seg, seg.perFile[p].findings...)
		}
		seg.stats = Aggregate(seg.seg)
		seg.gen, seg.valid = sh.Gen(), true
	})

	// Merge the per-shard segments (and the corpus segment) under the
	// findingLess total order, and fold the stats partials.
	segs := make([][]Finding, 0, len(names)+1)
	parts := make([]*Stats, 0, len(names)+1)
	if len(s.corpusSeg) > 0 {
		segs = append(segs, s.corpusSeg)
	}
	parts = append(parts, s.corpusStat)
	for _, m := range names {
		seg := s.shards[m]
		if len(seg.seg) > 0 {
			segs = append(segs, seg.seg)
		}
		parts = append(parts, seg.stats)
	}
	s.stats = MergeStats(parts...)
	return mergeFindingSegments(segs)
}

// maxScanNames is the number of changed names up to which a warm run
// scans the corpus for their readers; beyond it the run re-checks every
// file instead. On the 19.6 MB perfbench corpus (2-CPU Xeon) one
// identifier-boundary pass per name costs 1.3–1.6 ms and a full
// re-check about 320 ms plus any stub hydration; both grow with corpus
// bytes, so at this bound the scan still costs well under a full
// re-check. Renames, adds and removes move a handful of names each.
const maxScanNames = 128

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
// whose source spells one of keys at identifier boundaries. Per-file
// handlers read cross-file facts only through names spelled in their
// own file (the Registrar contract), so every other file's cached
// findings stay valid. The scan runs only when keys is non-empty, one
// shard per worker.
func spellingFiles(ctx *Context, shards []string, keys []string) map[string][]string {
	if len(keys) == 0 {
		return nil
	}
	every := keys[0] == "" // a name with no identifier: every file may read it
	hits := make([][]string, len(shards))
	par.For(par.Workers(len(shards)), len(shards), func(i int) {
		for _, p := range ctx.Index.Shard(shards[i]).Paths() {
			if every || spellsAny(ctx.Units[p].File.Src, keys) {
				hits[i] = append(hits[i], p)
			}
		}
	})
	out := make(map[string][]string, len(shards))
	for i, m := range shards {
		if len(hits[i]) > 0 {
			out[m] = hits[i]
		}
	}
	return out
}

// identKey returns the identifier to scan for when a name changed: the
// name itself when it is one identifier, otherwise its first identifier
// run (a destructor's class name, a template name before its arguments,
// "operator"), which every spelling of the name contains. A name with
// no identifier characters yields "".
func identKey(name string) string {
	i := 0
	for i < len(name) && !isIdentByte(name[i]) {
		i++
	}
	j := i
	for j < len(name) && isIdentByte(name[j]) {
		j++
	}
	return name[i:j]
}

// spellsAny reports whether src contains one of keys as a whole
// identifier: an occurrence not preceded or followed by an identifier
// character (the lexer's own identifier alphabet, so every identifier
// token qualifies), found with one strings.Index pass per key.
// Occurrences in comments and string literals count too, which only ever
// re-checks a file that did not need it.
func spellsAny(src string, keys []string) bool {
	for _, key := range keys {
		if spellsIdent(src, key) {
			return true
		}
	}
	return false
}

// spellsIdent reports whether src contains the non-empty key as a whole
// identifier.
func spellsIdent(src, key string) bool {
	for i := 0; ; {
		j := strings.Index(src[i:], key)
		if j < 0 {
			return false
		}
		j += i
		end := j + len(key)
		if (j == 0 || !isIdentByte(src[j-1])) && (end == len(src) || !isIdentByte(src[end])) {
			return true
		}
		i = j + 1
	}
}

// isIdentByte reports whether c can continue a C/C++ identifier.
func isIdentByte(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// mergeFindingSegments merges sorted finding segments into one sorted
// stream. Shard path ranges are normally disjoint, so the merge
// degrades to bulk copies: at each round the segment with the smallest
// head is copied forward up to the smallest head among the other
// segments (found by binary search), giving O(total) copies plus
// O(#segments) comparisons per boundary crossing.
func mergeFindingSegments(segs [][]Finding) []Finding {
	total := 0
	for _, sg := range segs {
		total += len(sg)
	}
	out := make([]Finding, 0, total)
	switch len(segs) {
	case 0:
		return out
	case 1:
		return append(out, segs[0]...)
	}
	active := make([][]Finding, 0, len(segs))
	for _, sg := range segs {
		if len(sg) > 0 {
			active = append(active, sg)
		}
	}
	if len(active) == 0 {
		return out
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
		// Copy min's prefix of elements <= the runner-up head.
		cur := active[min]
		bound := &active[next][0]
		n := sort.Search(len(cur), func(i int) bool { return findingLess(bound, &cur[i]) })
		if n == 0 {
			n = 1 // heads compare equal: emit one and re-evaluate
		}
		out = append(out, cur[:n]...)
		if n == len(cur) {
			active = append(active[:min], active[min+1:]...)
		} else {
			active[min] = cur[n:]
		}
	}
	return append(out, active[0]...)
}
