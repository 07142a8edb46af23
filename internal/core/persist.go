package core

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/artifact"
	"repro/internal/ccast"
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
// engine's per-file finding lists and conditions and its corpus segment,
// and the per-file metric rows. Restore rebuilds the file set, builds
// stub units (file-scope variables only) whose function records carry
// their facts and no declaration — nothing is parsed — reconstructs the
// sharded index from the facts, and fills the rule and metrics caches
// directly — the same per-shard state a cold run leaves, keyed on the
// restored index's unit generations — so the restored assessor answers
// Findings / Metrics / Assess byte-identically to the snapshotted one
// in O(load) and its first delta costs the same as a delta on the
// never-restarted process. Architectural partials are not persisted;
// they re-fold from the restored facts without text scans.
//
// No stub is ever parsed later: a delta walks only the files it
// changed, which arrive parsed, and a name whose cross-file facts move
// flips the rule engine's conditioned findings without a walk. A shard
// whose finding or metric block is unusable (it failed to decode, or an
// older format holds no conditions) goes through the cold load's
// per-file step at restore (load.go), so its files are parsed, walked
// and dropped one at a time, and both caches are filled completely.
//
// A cold load is this same fill fed by per-file records instead of a
// snapshot (LoadFileSet), so a cold-loaded and a restored assessor hold
// the same warm state: stubs, facts, finding lists and rows. The only
// units ever parsed in the warm state are a delta's, until the next
// Assess demotes them to the stub a restore would build (demote).

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

// PersistedShard is one module shard's state. Units, Findings, Conds'
// files and Rows are positional: entry i of each belongs to the unit at
// Units[i].
//
// A shard carrying only Module and Encoded (ExportState's form for a
// shard unchanged since its restore) is input for encoders only;
// RestoreAssessorFrom rejects a state holding one.
type PersistedShard struct {
	Module string
	// Units holds the shard's per-unit facts in sorted path order.
	Units []artifact.UnitFacts
	// Findings holds one cached finding list per unit, and Conds its
	// conditioned findings; both nil when its snapshot block is
	// unusable.
	Findings [][]rules.Finding
	Conds    *rules.Conditions
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
// snapshot. It runs the rule engine and Metrics first (a no-op when
// already warm) so the exported caches are complete.
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
	a.runRules()
	a.Metrics()
	ix := a.Index()
	corpus, ok := a.ruleEng.CorpusFindings()
	if !ok {
		return nil, errors.New("core: rule cache not warm after runRules")
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
		if ps.Findings, ps.Conds, ok = a.ruleEng.ShardFindings(m); !ok {
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
// snapshot's rule fingerprint). Units are fact-carrying stubs. The
// source yields the whole state (a snapshot decodes every block in one
// parallel pass); one more parallel pass validates each shard and builds
// its stubs. The sharded index is rebuilt from the facts, and the rule
// and metric caches are filled directly, as a cold load fills them,
// with every shard filled from its blocks sealed. A shard whose finding
// lists, conditions or metric rows are missing (a block that failed to
// decode, or a finding block of an older format) or do not fit its
// units goes through the cold load's per-file step instead: both caches
// take that shard from the step's walks and rows, unsealed, and it is
// left out of the blocks ExportState hands back, so the next snapshot
// encodes it afresh. Each unusable block is counted (RecomputedBlocks).
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

	// Validate and build each shard's stub units on a worker pool —
	// the file-set lookups are read-only, and the build writes only
	// shard-local slices. A shard whose finding or metric block is
	// unusable goes through the per-file step instead, on the worker's
	// own loader. The shared maps are filled (and cross-shard duplicates
	// detected) in a sequential merge in shard order, so errors surface
	// exactly as a sequential loop would report them.
	type shardStubs struct {
		tus     []*ccast.TranslationUnit
		fas     [][]*artifact.Func
		globals [][]string
		// findings and rows report whether the shard's cached lists and
		// rows are usable; when one is not, walks and computed hold the
		// per-file step's walk and row of each unit.
		findings, rows bool
		walks          []rules.FileWalk
		computed       []*metrics.FileMetrics
		err            error
	}
	parts := make([]shardStubs, len(st.Shards))
	workers := par.Workers(len(parts))
	loaders := make([]*loader, workers)
	par.ForWorkers(workers, len(parts), func(w, k int) {
		ps, p := &st.Shards[k], &parts[k]
		p.findings = len(ps.Findings) == len(ps.Units) && condsFit(ps)
		p.rows = len(ps.Rows) == len(ps.Units) && !slices.Contains(ps.Rows, nil)
		step := !p.findings || !p.rows
		if step {
			if loaders[w] == nil {
				loaders[w] = a.newLoader()
			}
			p.walks = make([]rules.FileWalk, len(ps.Units))
			p.computed = make([]*metrics.FileMetrics, len(ps.Units))
		}
		p.tus = make([]*ccast.TranslationUnit, len(ps.Units))
		p.fas = make([][]*artifact.Func, len(ps.Units))
		p.globals = make([][]string, len(ps.Units))
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
			if !step {
				p.tus[i], p.fas[i] = artifact.UnitFromFacts(f, uf)
				p.globals[i] = uf.Globals
				continue
			}
			fst, err := loaders[w].load(f)
			if err != nil {
				p.err = err
				return
			}
			p.tus[i] = &ccast.TranslationUnit{File: f}
			p.fas[i], p.globals[i] = fst.recs, fst.globals
			p.walks[i], p.computed[i] = fst.walk, fst.row
		}
	})
	units := make(map[string]*ccast.TranslationUnit, len(st.Files))
	recs := make(map[string][]*artifact.Func, len(st.Files))
	globals := make(map[string][]string, len(st.Files))
	shardFindings := make(map[string][][]rules.Finding, len(st.Shards))
	shardConds := make(map[string]*rules.Conditions, len(st.Shards))
	shardRows := make(map[string][]*metrics.FileMetrics, len(st.Shards))
	walked := make(map[string][]rules.FileWalk)
	computed := make(map[string][]*metrics.FileMetrics)
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
			units[path], recs[path], globals[path] = p.tus[i], p.fas[i], p.globals[i]
		}
		if !p.findings {
			a.recomputed++
		}
		if !p.rows {
			a.recomputed++
		}
		if p.walks != nil {
			// The step's walks and rows fill both caches, and the shard
			// stays out of encoded, so ExportState encodes it afresh.
			walked[ps.Module], computed[ps.Module] = p.walks, p.computed
			continue
		}
		shardFindings[ps.Module], shardConds[ps.Module] = ps.Findings, ps.Conds
		shardRows[ps.Module] = ps.Rows
		if ps.Encoded != nil {
			encoded[ps.Module] = ps.Encoded
		}
	}
	if len(units) != len(st.Files) {
		return nil, fmt.Errorf("core: snapshot has %d files but %d units", len(st.Files), len(units))
	}
	ix, err := artifact.BuildFromRecords(units, recs, globals)
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
	a.ruleEng.RestoreCache(ix, st.CorpusFindings, shardFindings, shardConds, walked)
	a.mcache.RestoreRows(ix, shardRows, computed)
	return a, nil
}

// RecomputedBlocks returns how many snapshot finding and metric blocks
// were unusable when the assessor was restored (they failed to decode,
// or an older format wrote them); the restore recomputed each one's
// shard. Zero for assessors that never restored.
func (a *Assessor) RecomputedBlocks() int { return a.recomputed }

// StubUnits reports how many units are fact-carrying stubs rather than
// parsed ASTs. Diagnostics and tests only.
func (a *Assessor) StubUnits() int { return len(a.units) - len(a.parsed) }

// demote turns every unit a delta parsed back into the fact stub a
// restore would build from it (artifact.Index.Demote), so its parse
// arena can be collected, and empties the parsed set. Assess calls it
// once every AST reader of the run — the rule walk, the dirty metric
// rows, the arch fold — is done; with nothing parsed it costs O(1).
func (a *Assessor) demote() {
	if len(a.parsed) == 0 {
		return
	}
	paths := make([]string, 0, len(a.parsed))
	for p := range a.parsed {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	a.Index().Demote(paths)
	a.parsed = make(map[string]bool)
}

// condsFit reports whether a shard's conditions fit its units: one list
// per unit, each naming an entry of Names and a function of its unit.
func condsFit(ps *PersistedShard) bool {
	c := ps.Conds
	if c == nil || len(c.Off) != len(ps.Units)+1 || c.Off[0] != 0 || c.Off[len(ps.Units)] != len(c.Conds) {
		return false
	}
	for i := range ps.Units {
		if c.Off[i] > c.Off[i+1] {
			return false
		}
		for _, cd := range c.Conds[c.Off[i]:c.Off[i+1]] {
			if int(cd.Name) >= len(c.Names) || int(cd.Func) >= len(ps.Units[i].Funcs) {
				return false
			}
		}
	}
	return true
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
