package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/iso26262"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// This file is the assessor's snapshot/restore boundary, the core of the
// persistent corpus store (internal/store holds the on-disk codec and
// journal; this file defines what state round-trips).
//
// A snapshot captures the corpus sources plus every expensive derived
// artifact: per-unit analysis facts (artifact.UnitFacts), the rule
// engine's per-file finding segments and corpus segment, and the
// per-file metric rows. Restore rebuilds the file set, fabricates
// fact-carrying stub units (no statement bodies — nothing is parsed),
// reconstructs the sharded index from the facts, and fills the rule and
// metrics caches directly — the same per-shard state a cold run leaves,
// keyed on the restored index's unit generations — so the restored
// assessor answers Findings / Metrics / Assess byte-identically to the
// snapshotted one in O(load) and its first delta costs the same as a
// delta on the never-restarted process. Architectural partials are not
// persisted; they re-fold from the restored facts without text scans.
//
// Stub units are hydrated — re-parsed into real ASTs — lazily, the
// moment the rule engine needs to re-walk them (a content edit arrives
// freshly parsed through the delta path; a delta that moves a name's
// cross-file facts re-walks the untouched files spelling that name and
// hydrates exactly those). Hydration is content-preserving and moves no
// unit generation, so every fact and cache key stays valid.

// PersistedFile is the serializable projection of one corpus file.
type PersistedFile struct {
	Path   string
	Module string // the stored (possibly overridden) module
	Lang   srcfile.Language
	Src    string
}

// PersistedState is the complete snapshot of a warm assessor. It is
// plain data in one shape for every direction: ExportState fills it,
// internal/store encodes it to the versioned binary snapshot format and
// decodes it back (store.Snapshot.State), and RestoreAssessorFrom
// consumes it. The differential harness round-trips it to pin restore
// equivalence.
type PersistedState struct {
	// Target is the ASIL the assessor judges against.
	Target iso26262.ASIL
	// RuleIDs fingerprints the rule set the cached findings came from;
	// restore refuses a mismatching engine rather than serving another
	// rule set's cache as its own.
	RuleIDs []string
	// Files holds the corpus in FileSet insertion order.
	Files []PersistedFile
	// Shards holds the per-module state, sorted by module: the partition
	// the artifact index derives from Files.
	Shards []PersistedShard
	// CorpusFindings is the corpus-level (cross-file) finding segment.
	CorpusFindings []rules.Finding
}

// PersistedShard is one module shard's state. Units, Findings and Rows
// are positional: entry i of each belongs to the unit at Units[i].
//
// A shard carrying only Module and Encoded (ExportState's form for a
// shard unchanged since its restore) is input for encoders only;
// RestoreAssessorFrom rejects a state holding one.
type PersistedShard struct {
	Module string
	// Units holds the shard's per-unit facts in sorted path order.
	Units []artifact.UnitFacts
	// Findings holds one cached finding list per unit; nil when its
	// snapshot block did not decode.
	Findings [][]rules.Finding
	// Rows holds one metrics row per unit; nil when its snapshot block
	// did not decode.
	Rows []*metrics.FileMetrics
	// Encoded is the shard's blocks as a snapshot stores them, set when
	// the shard came from one. Core never reads them: a restored
	// assessor hands them back with every shard still sealed in both
	// caches, and the encoder copies them verbatim.
	Encoded *EncodedShard
}

// EncodedShard is one shard's stored snapshot blocks: its file count
// and its U, R and M blocks (internal/store owns the format).
type EncodedShard struct {
	Files  int
	Blocks [3]string
}

// StateSource is anything a persisted state can be read from:
// internal/store's Snapshot decodes one, and a PersistedState is its own
// source.
type StateSource interface {
	State() (*PersistedState, error)
}

// State returns st itself.
func (st *PersistedState) State() (*PersistedState, error) { return st, nil }

// ruleIDs lists a rule set's IDs in engine order.
func ruleIDs(rs []rules.Rule) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID()
	}
	return out
}

// ExportState captures the assessor's corpus and warm caches as a
// snapshot. It runs Findings and Metrics first (a no-op when already
// warm) so the exported caches are complete.
//
// A restored assessor exports only what moved since the restore: a
// shard still sealed in both the rule engine and the metrics cache
// holds exactly its restore-time blocks, so it is exported as those
// blocks (Encoded) alone. The finding lists and metric rows of every
// other shard are views the caches never write again, so the state
// stays valid while later deltas move the assessor on.
func (a *Assessor) ExportState() (*PersistedState, error) {
	if a.fs == nil {
		return nil, errors.New("core: ExportState before a corpus is loaded")
	}
	a.Findings()
	a.Metrics()
	ix := a.Index()
	corpus, ok := a.ruleEng.CorpusFindings()
	if !ok {
		return nil, errors.New("core: rule cache not warm after Findings()")
	}
	names := ix.ShardNames()
	st := &PersistedState{
		Target:         a.cfg.TargetASIL,
		RuleIDs:        ruleIDs(a.cfg.Rules),
		Files:          make([]PersistedFile, 0, a.fs.Len()),
		Shards:         make([]PersistedShard, len(names)),
		CorpusFindings: corpus,
	}
	for _, f := range a.fs.Files() {
		st.Files = append(st.Files, PersistedFile{Path: f.Path, Module: f.Module, Lang: f.Lang, Src: f.Src})
	}
	for k, m := range names {
		ps := &st.Shards[k]
		ps.Module = m
		if enc := a.encoded[m]; enc != nil && a.ruleEng.Sealed(m) && a.mcache.Sealed(m) {
			ps.Encoded = enc
			continue
		}
		if ps.Findings, ok = a.ruleEng.ShardFindings(m); !ok {
			return nil, errors.New("core: rule cache not warm after Findings()")
		}
		if ps.Rows, ok = a.mcache.ShardRows(m); !ok {
			return nil, errors.New("core: metrics cache not warm after Metrics()")
		}
		paths := ix.Shard(m).Paths()
		ps.Units = make([]artifact.UnitFacts, len(paths))
		for i, p := range paths {
			ps.Units[i] = ix.UnitFacts(p)
		}
	}
	return st, nil
}

// RestoreAssessorFrom rebuilds a warm assessor from a state source.
// The target ASIL comes from the snapshot; cfg supplies everything else
// (a nil cfg.Rules means rules.DefaultRules, which must match the
// snapshot's rule fingerprint). No source is parsed: units are
// fact-carrying stubs, hydrated on demand when a cache needs their
// ASTs. The source yields the whole state (a snapshot decodes every
// block in one parallel pass); one more parallel pass validates each
// shard and fabricates its stubs. The sharded index is rebuilt from the
// facts, and the rule and metric caches are filled directly, exactly as
// a cold run fills them, with every filled shard sealed. A shard whose
// finding lists or metric rows are missing (a block that failed to
// decode) or of the wrong length is left out of that cache's fill and
// counted (RecomputedBlocks): the cache recomputes exactly that shard on
// first use, hydrating its stubs, never serving stale or wrong output.
func RestoreAssessorFrom(cfg Config, src StateSource) (*Assessor, error) {
	st, err := src.State()
	if err != nil {
		return nil, err
	}
	cfg.TargetASIL = st.Target
	a := NewAssessor(cfg)
	if got, want := ruleIDs(a.cfg.Rules), st.RuleIDs; !equalStrings(got, want) {
		return nil, fmt.Errorf("core: snapshot rule set %v does not match engine rule set %v", want, got)
	}
	if len(st.Files) == 0 {
		return nil, errors.New("core: snapshot holds no files")
	}

	fs := srcfile.NewFileSet()
	for i := range st.Files {
		pf := &st.Files[i]
		if pf.Path == "" {
			return nil, errors.New("core: snapshot file without a path")
		}
		if fs.Lookup(pf.Path) != nil {
			return nil, fmt.Errorf("core: snapshot holds %s twice", pf.Path)
		}
		fs.Add(&srcfile.File{Path: pf.Path, Module: pf.Module, Lang: pf.Lang, Src: pf.Src})
	}

	// Validate and fabricate each shard's stub units on a worker pool —
	// the file-set lookups are read-only, and fabrication writes only
	// shard-local slices. The shared maps are filled (and cross-shard
	// duplicates detected) in a sequential merge in shard order, so
	// errors surface exactly as a sequential loop would report them.
	type shardStubs struct {
		tus []*ccast.TranslationUnit
		fas [][]*artifact.Func
		err error
	}
	parts := make([]shardStubs, len(st.Shards))
	par.For(par.Workers(len(parts)), len(parts), func(k int) {
		ps, p := &st.Shards[k], &parts[k]
		p.tus = make([]*ccast.TranslationUnit, len(ps.Units))
		p.fas = make([][]*artifact.Func, len(ps.Units))
		for i := range ps.Units {
			uf := ps.Units[i]
			f := fs.Lookup(uf.Path)
			if f == nil {
				p.err = fmt.Errorf("core: snapshot unit %s has no file", uf.Path)
				return
			}
			if f.ModuleName() != ps.Module {
				p.err = fmt.Errorf("core: snapshot unit %s filed under shard %q but its module is %q", uf.Path, ps.Module, f.ModuleName())
				return
			}
			p.tus[i], p.fas[i] = artifact.UnitFromFacts(f, uf)
		}
	})
	units := make(map[string]*ccast.TranslationUnit, len(st.Files))
	recs := make(map[string][]*artifact.Func, len(st.Files))
	stubs := make(map[string]bool, len(st.Files))
	shardFindings := make(map[string][][]rules.Finding, len(st.Shards))
	shardRows := make(map[string][]*metrics.FileMetrics, len(st.Shards))
	encoded := make(map[string]*EncodedShard, len(st.Shards))
	for k := range st.Shards {
		ps, p := &st.Shards[k], &parts[k]
		if p.err != nil {
			return nil, p.err
		}
		for i := range ps.Units {
			path := ps.Units[i].Path
			if units[path] != nil {
				return nil, fmt.Errorf("core: snapshot holds unit %s twice", path)
			}
			units[path], recs[path] = p.tus[i], p.fas[i]
			stubs[path] = true
		}
		if len(ps.Findings) == len(ps.Units) {
			shardFindings[ps.Module] = ps.Findings
		} else {
			a.recomputed++
		}
		if len(ps.Rows) == len(ps.Units) && !slices.Contains(ps.Rows, nil) {
			shardRows[ps.Module] = ps.Rows
		} else {
			a.recomputed++
		}
		if ps.Encoded != nil {
			encoded[ps.Module] = ps.Encoded
		}
	}
	if len(units) != len(st.Files) {
		return nil, fmt.Errorf("core: snapshot has %d files but %d units", len(st.Files), len(units))
	}
	ix, err := artifact.BuildFromRecords(units, recs)
	if err != nil {
		return nil, err
	}
	// The index must derive the partition the snapshot declared, in the
	// same (sorted) order — required for the positional zip of the shard
	// blocks. Every unit sits in its module's shard, so equal shard counts
	// make the partitions equal and leave only the order to check.
	// Inequality means corrupt or inconsistent grouping, not a
	// recoverable cache miss.
	if n := len(ix.ShardNames()); n != len(st.Shards) {
		return nil, fmt.Errorf("core: snapshot has %d shards but its units form %d", len(st.Shards), n)
	}
	for k := range st.Shards {
		ps := &st.Shards[k]
		for i, p := range ix.Shard(ps.Module).Paths() {
			if ps.Units[i].Path != p {
				return nil, fmt.Errorf("core: snapshot shard %q path list does not match the restored index", ps.Module)
			}
		}
	}

	a.fs, a.units, a.ix = fs, units, ix
	a.encoded = encoded
	a.ruleEng.RestoreCache(ix, st.CorpusFindings, shardFindings)
	a.mcache.RestoreRows(ix, shardRows)
	a.stubs = stubs
	a.ruleEng.Hydrate = a.hydratePaths
	a.mcache.Hydrate = a.hydratePaths
	return a, nil
}

// RecomputedBlocks returns how many snapshot finding and metric blocks
// failed to decode when the assessor was restored; each leaves its shard
// to be recomputed in that cache. Zero for assessors that never
// restored.
func (a *Assessor) RecomputedBlocks() int { return a.recomputed }

// StubUnits reports how many restored units are still fact-carrying
// stubs (never re-parsed since restore). Diagnostics and tests only.
func (a *Assessor) StubUnits() int { return len(a.stubs) }

// hydratePaths re-parses any still-stub units among paths and swaps the
// real ASTs (and re-analyzed records) into the index in place. Invoked
// by the rule engine at a sequential point before it walks dirty files.
// The corpus content of a stub is by construction unchanged since the
// snapshot, so hydration changes no fact, unit generation, or cache key.
func (a *Assessor) hydratePaths(paths []string) {
	var todo []string
	for _, p := range paths {
		if a.stubs[p] {
			todo = append(todo, p)
		}
	}
	if len(todo) == 0 {
		return
	}
	tus := make([]*ccast.TranslationUnit, len(todo))
	par.For(par.Workers(len(todo)), len(todo), func(i int) {
		tu, _ := ccparse.Parse(a.fs.Lookup(todo[i]), ccparse.Options{Intern: a.intern})
		tus[i] = tu
	})
	for i, p := range todo {
		if tus[i] == nil {
			// Unreachable for state that parsed before the snapshot was
			// taken; corrupted snapshots fail their checksums long before
			// this point.
			panic(fmt.Sprintf("core: hydrating %s: snapshot source no longer parses", p))
		}
		a.ix.Rehydrate(tus[i], artifact.AnalyzeUnit(tus[i]))
		delete(a.stubs, p)
	}
	a.metrics.StubsHydrated.Add(int64(len(todo)))
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
