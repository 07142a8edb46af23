package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/par"
	"repro/internal/srcfile"
)

// ErrCommitHook marks CommitDelta failures originating in the commit
// hook (the persistence layer's journal append) rather than in the
// delta itself, so callers can classify them as server-side durability
// faults — retryable — instead of invalid requests.
var ErrCommitHook = errors.New("commit hook failed")

// Delta is a corpus edit: files to add or replace, and paths to remove.
type Delta struct {
	// Changed holds new or replacement files keyed by their Path. Only
	// Path, Src, and (optionally) Module are honored: Lang is always
	// derived from the path, as in a cold ingest.
	Changed []*srcfile.File
	// Removed lists paths to drop from the corpus.
	Removed []string
}

// DeltaResult reports what a delta actually did.
type DeltaResult struct {
	// Parsed counts files whose content changed (or that are new) and
	// were therefore re-parsed and re-indexed.
	Parsed int
	// Unchanged counts files in Changed whose content matched the
	// corpus and were skipped entirely.
	Unchanged int
	// Removed counts files dropped.
	Removed int

	// ParseNs is the wall time PrepareDelta spent parsing dirty files
	// (the parallel parse fan-out), carried through to the commit so the
	// serving layer can report a per-request phase breakdown.
	ParseNs int64
	// HookNs is the wall time CommitDelta spent inside the commit hook
	// (the journal stage on the persistent path); subtracting it from
	// the commit's wall time isolates the in-memory index update.
	HookNs int64
	// DirtyShards mirrors the artifact index's ApplyStats: how many
	// shards' generations the commit moved.
	DirtyShards int
}

// LoadDir ingests a real on-disk C/C++/CUDA tree (srcfile.LoadDir with
// default filters) and parses it as the corpus.
func (a *Assessor) LoadDir(root string) error {
	fs, err := srcfile.LoadDir(root, srcfile.LoadOptions{})
	if err != nil {
		return err
	}
	if fs.Len() == 0 {
		return fmt.Errorf("core: no C/C++/CUDA sources under %s", root)
	}
	return a.LoadFileSet(fs)
}

// PreparedDelta is a validated, parsed corpus edit awaiting commit. The
// expensive, read-only half of a delta (change detection and parsing)
// happens in PrepareDelta; CommitDelta then mutates the assessor. The
// serving layer exploits the split for shard-aware concurrency: deltas
// to disjoint modules prepare in parallel under a read lock and only
// serialize for the (cheap) commit.
type PreparedDelta struct {
	a       *Assessor
	dirty   []*srcfile.File
	parsed  []*ccast.TranslationUnit
	removed []string
	// unchanged counts files whose content matched the corpus at
	// prepare time.
	unchanged int
	// parseNs is the wall time the parse fan-out took.
	parseNs int64
}

// PrepareDelta validates and parses a corpus edit without mutating any
// assessor state. It only reads the file set (to detect unchanged
// content and inherit module overrides), so callers may run several
// prepares concurrently as long as no commit runs in between — the
// serving layer holds a read lock here and the write lock across
// CommitDelta.
func (a *Assessor) PrepareDelta(d Delta) (*PreparedDelta, error) {
	if a.fs == nil {
		return nil, errors.New("core: ApplyDelta before a corpus is loaded")
	}
	pd := &PreparedDelta{a: a, removed: d.Removed}

	// A path appearing in both Removed and Changed is removed FIRST
	// (CommitDelta's application order): its change is a fresh add —
	// never "unchanged", and inheriting no module override from the file
	// it replaces. Batched deltas merge remove-then-re-add sequences
	// into exactly this shape (see MergeDeltas).
	var removedSet map[string]bool
	if len(d.Removed) > 0 && len(d.Changed) > 0 {
		removedSet = make(map[string]bool, len(d.Removed))
		for _, p := range d.Removed {
			removedSet[p] = true
		}
	}

	// Decide what actually changed.
	for _, f := range d.Changed {
		if f == nil || f.Path == "" {
			return nil, errors.New("core: delta file without a path")
		}
		old := a.fs.Lookup(f.Path)
		if removedSet[f.Path] {
			old = nil
		}
		if old != nil && old.Src == f.Src {
			pd.unchanged++
			continue
		}
		// Normalize before parsing (the parser keys CUDA lexing off
		// Lang). Delta files are (path, content) pairs: Lang always
		// derives from the path — the zero Language value is LangC, so
		// "caller left it unset" is indistinguishable from an explicit
		// C override and path-derivation is the only sound rule, exactly
		// matching a cold AddSource/LoadDir ingest. A Module override
		// is corpus metadata: an explicit value wins, a replaced file's
		// existing override is inherited, otherwise the path decides.
		f.Lang = srcfile.LanguageForPath(f.Path)
		if f.Module == "" && old != nil {
			f.Module = old.Module
		}
		if f.Module == "" {
			f.Module = f.ModuleName()
		}
		pd.dirty = append(pd.dirty, f)
	}

	// Parse the dirty files before any state can be touched, mirroring
	// LoadFileSet's tolerance: BadDecls are fine, a nil unit is not. Each
	// unit gets a private arena: it lives until the next Assess demotes
	// it.
	parseStart := time.Now()
	pd.parsed = make([]*ccast.TranslationUnit, len(pd.dirty))
	perr := make([]*ccparse.Error, len(pd.dirty))
	par.For(par.Workers(len(pd.dirty)), len(pd.dirty), func(i int) {
		tu, errs := ccparse.Parse(pd.dirty[i], ccparse.Options{Intern: a.intern})
		pd.parsed[i] = tu
		if tu == nil && len(errs) > 0 {
			perr[i] = errs[0]
		}
	})
	pd.parseNs = time.Since(parseStart).Nanoseconds()
	for i := range pd.parsed {
		if pd.parsed[i] == nil {
			return nil, fmt.Errorf("core: file %s failed to parse: %v", pd.dirty[i].Path, perr[i])
		}
	}
	return pd, nil
}

// CommitDelta applies a prepared delta: file set, parse map, and the
// artifact index, which re-analyzes only the upserted units and
// rebuilds only the dirty shards. Callers must serialize commits
// (and any reads) on the assessor.
func (a *Assessor) CommitDelta(pd *PreparedDelta) (*DeltaResult, error) {
	if pd == nil || pd.a != a {
		return nil, errors.New("core: CommitDelta with a delta prepared for a different assessor")
	}
	res := &DeltaResult{Unchanged: pd.unchanged, ParseNs: pd.parseNs}
	if a.commitHook != nil && (len(pd.dirty) > 0 || len(pd.removed) > 0) {
		// Write-ahead discipline: the hook (the journal write — callers
		// that stage without syncing own making it durable before they
		// acknowledge) must succeed before any state mutates, so a crash
		// at any later point replays the delta on the next boot. On error
		// the commit is aborted with the assessor untouched.
		// All-unchanged deltas skip the hook: there is nothing to replay,
		// and journaling empty records would cost a record (and advance
		// compaction) per no-op.
		hookStart := time.Now()
		if err := a.commitHook(pd.dirty, pd.removed); err != nil {
			return nil, fmt.Errorf("core: %w: %v", ErrCommitHook, err)
		}
		res.HookNs = time.Since(hookStart).Nanoseconds()
	}
	var removedPaths []string
	for _, p := range pd.removed {
		if a.fs.Remove(p) {
			delete(a.units, p)
			delete(a.parsed, p)
			removedPaths = append(removedPaths, p)
			res.Removed++
		}
	}
	for i, f := range pd.dirty {
		canon := a.fs.Add(f)
		// Add replaces in place, keeping the corpus-resident *File
		// canonical; re-point the fresh unit at it so index, metrics,
		// and rules all observe one File identity per path.
		pd.parsed[i].File = canon
		a.units[canon.Path] = pd.parsed[i]
		a.parsed[canon.Path] = true
		res.Parsed++
	}
	a.ix.Apply(pd.parsed, removedPaths)
	res.DirtyShards = a.ix.LastApply().DirtyShards

	// Drop memoized whole-corpus results; the per-shard caches behind
	// them make the recomputation proportional to the delta. The
	// generation advances under the same condition the commit hook fires:
	// an all-unchanged delta leaves nothing observable to invalidate.
	if len(pd.dirty) > 0 || len(pd.removed) > 0 {
		a.gen++
	}
	a.findings = nil
	a.stats = nil
	a.fw = nil
	a.arch = nil
	return res, nil
}

// ApplyDelta applies a corpus edit in place. Only genuinely changed
// files are re-parsed and only their shards re-indexed; every warm
// per-file and per-shard cache (rule finding segments, metrics rows,
// arch partials) survives for untouched shards. The next
// Assess/Findings/Metrics call recomputes exactly the dirty remainder
// and yields results byte-identical to a cold full run over the edited
// corpus.
//
// On error (unloaded corpus, unparseable file) the assessor state is
// unchanged: parsing happens before any mutation.
func (a *Assessor) ApplyDelta(d Delta) (*DeltaResult, error) {
	pd, err := a.PrepareDelta(d)
	if err != nil {
		return nil, err
	}
	return a.CommitDelta(pd)
}

// MergeDeltas folds an ordered sequence of corpus edits into one
// equivalent Delta: for every path the LAST operation wins (a change
// after a remove keeps the remove too — remove-then-fresh-add is the
// sequential meaning; a remove after a change drops the change), so
// committing the merged delta leaves exactly the corpus state of
// applying the sequence one delta at a time. Changed files and removed
// paths come out in sorted path order, giving every batch a canonical
// wire and journal shape regardless of arrival order.
func MergeDeltas(ds []Delta) Delta {
	if len(ds) == 1 {
		return ds[0]
	}
	type pathOp struct {
		f       *srcfile.File // final change; nil when the final op is a remove
		removed bool          // a remove is in effect (final, or before the final change)
	}
	ops := make(map[string]*pathOp)
	// Invalid entries (nil file, empty path) pass through so the merged
	// prepare rejects the batch exactly as sequential application would.
	var invalid []*srcfile.File
	for _, d := range ds {
		for _, p := range d.Removed {
			if o := ops[p]; o != nil {
				o.f, o.removed = nil, true
			} else {
				ops[p] = &pathOp{removed: true}
			}
		}
		for _, f := range d.Changed {
			if f == nil || f.Path == "" {
				invalid = append(invalid, f)
				continue
			}
			if o := ops[f.Path]; o != nil {
				o.f = f // o.removed survives: remove-before-change
			} else {
				ops[f.Path] = &pathOp{f: f}
			}
		}
	}
	paths := make([]string, 0, len(ops))
	for p := range ops {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var out Delta
	for _, p := range paths {
		o := ops[p]
		if o.removed {
			out.Removed = append(out.Removed, p)
		}
		if o.f != nil {
			out.Changed = append(out.Changed, o.f)
		}
	}
	out.Changed = append(out.Changed, invalid...)
	return out
}

// ApplyDeltaBatch applies an ordered sequence of corpus edits as ONE
// commit: the batch folds into its equivalent single delta
// (MergeDeltas), prepares once — every genuinely changed file across
// the batch parses in parallel — and commits once, so the commit hook
// fires once (one journal record, hence one fsync under the group
// commit discipline), the index applies one combined update, and the
// memoized projections invalidate once. The post-commit corpus state is
// identical to applying the deltas one at a time; the DeltaResult
// counts describe the merged delta (a file changed twice counts once).
// A one-delta batch is exactly ApplyDelta.
func (a *Assessor) ApplyDeltaBatch(ds []Delta) (*DeltaResult, error) {
	if len(ds) == 0 {
		return nil, errors.New("core: ApplyDeltaBatch with no deltas")
	}
	return a.ApplyDelta(MergeDeltas(ds))
}

// SetCommitHook installs (or, with nil, removes) a hook invoked with
// every CommitDelta's normalized operations — the changed files after
// language/module resolution and the raw removal list — before any
// assessor state mutates. A hook error aborts the commit with the
// assessor untouched. The persistence layer uses it as the write-ahead
// journal write (Append to sync per commit, or Stage plus a later group
// commit — in the latter case the caller must not acknowledge the delta
// until the staged record is durable); replaying the recorded
// operations through ApplyDelta on a restored snapshot reproduces the
// exact post-commit state.
func (a *Assessor) SetCommitHook(h func(changed []*srcfile.File, removed []string) error) {
	a.commitHook = h
}

// RuleFilesChecked returns how many files the last Findings() run
// walked: after a delta, the files it parsed (diagnostics for the
// serving layer).
func (a *Assessor) RuleFilesChecked() int { return a.ruleEng.LastDirty() }

// RuleConditionsEvaluated returns how many conditioned findings the last
// Findings() run re-evaluated because a name they wait on moved.
func (a *Assessor) RuleConditionsEvaluated() int { return a.ruleEng.LastConditions() }

// MetricFilesComputed returns how many per-file metric rows the last
// Metrics() run recomputed.
func (a *Assessor) MetricFilesComputed() int { return a.mcache.LastDirty() }
