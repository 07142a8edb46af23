package core

import (
	"errors"
	"fmt"
	"sort"

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
// reconstructs the sharded index from the facts, and seeds the rule and
// metrics caches warm, so the restored assessor answers Findings /
// Metrics / Assess byte-identically to the snapshotted one in O(load)
// and its first delta costs the same as a delta on the never-restarted
// process. Architectural partials are not persisted; they re-fold from
// the restored facts without text scans.
//
// Stub units are hydrated — re-parsed into real ASTs — lazily, the
// moment the rule engine needs to re-walk them (a content edit arrives
// freshly parsed through the delta path; a delta that moves a name's
// cross-file facts re-walks the untouched files spelling that name and
// hydrates exactly those). Hydration is content-preserving, so every
// fact and cache key stays valid.

// PersistedFile is the serializable projection of one corpus file.
type PersistedFile struct {
	Path   string
	Module string // the stored (possibly overridden) module
	Lang   srcfile.Language
	Src    string
}

// PersistedState is the complete snapshot of a warm assessor. It is
// plain data: internal/store encodes it to the versioned binary
// snapshot format, and the differential harness round-trips it to pin
// restore equivalence.
type PersistedState struct {
	// Target is the ASIL the assessor judges against.
	Target iso26262.ASIL
	// RuleIDs fingerprints the rule set the cached findings came from;
	// restore refuses a mismatching engine rather than serving another
	// rule set's cache as its own.
	RuleIDs []string
	// Files holds the corpus in FileSet insertion order.
	Files []PersistedFile
	// Units holds per-unit analysis facts in sorted path order.
	Units []artifact.UnitFacts
	// FileFindings maps every unit path to its cached finding segment
	// (present even when empty).
	FileFindings map[string][]rules.Finding
	// CorpusFindings is the corpus-level (cross-file) finding segment.
	CorpusFindings []rules.Finding
	// MetricRows maps every unit path to its metrics row.
	MetricRows map[string]*metrics.FileMetrics

	// Copied lists, sorted, the module shards whose unit facts, finding
	// lists and metric rows are unchanged since Base: they have no
	// entries in Units, FileFindings or MetricRows, and encoders take
	// them from Base. Source resolves them the same way.
	Copied []string
	// Base is the state source the assessor was restored from; set
	// exactly when Copied is non-empty, so a state only ever pairs with
	// its own snapshot.
	Base StateSource
}

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
// holds exactly its restore-time blocks, so it is listed in Copied
// (with the restore source as Base) instead of being exported. A cold
// assessor copies nothing.
func (a *Assessor) ExportState() (*PersistedState, error) {
	if a.fs == nil {
		return nil, errors.New("core: ExportState before a corpus is loaded")
	}
	a.Findings()
	a.Metrics()
	ix := a.Index()
	var copied []string
	var skip map[string]bool
	if a.base != nil {
		for _, m := range ix.ShardNames() {
			if a.ruleEng.Sealed(m) && a.mcache.Sealed(m) {
				copied = append(copied, m)
			}
		}
		skip = make(map[string]bool, len(copied))
		for _, m := range copied {
			skip[m] = true
		}
	}
	perFile, corpus, ok := a.ruleEng.ExportCache(skip)
	if !ok {
		return nil, errors.New("core: rule cache not warm after Findings()")
	}
	rows, ok := a.mcache.ExportRows(skip)
	if !ok {
		return nil, errors.New("core: metrics cache not warm after Metrics()")
	}
	st := &PersistedState{
		Target:         a.cfg.TargetASIL,
		RuleIDs:        ruleIDs(a.cfg.Rules),
		Files:          make([]PersistedFile, 0, a.fs.Len()),
		Units:          make([]artifact.UnitFacts, 0, len(perFile)),
		FileFindings:   perFile,
		CorpusFindings: corpus,
		MetricRows:     rows,
	}
	if len(copied) > 0 {
		st.Copied, st.Base = copied, a.base
	}
	for _, f := range a.fs.Files() {
		st.Files = append(st.Files, PersistedFile{Path: f.Path, Module: f.Module, Lang: f.Lang, Src: f.Src})
	}
	for _, p := range ix.Paths {
		if len(skip) == 0 || !skip[ix.Units[p].File.ModuleName()] {
			st.Units = append(st.Units, ix.UnitFacts(p))
		}
	}
	return st, nil
}

// StateSource is the lazy face of a snapshot: the restore path pulls
// the cheap corpus skeleton (files, per-unit facts) eagerly and defers
// each shard's finding segments and metric rows until the caches first
// touch that shard. internal/store's Snapshot implements it over the
// raw snapshot bytes (decoding one shard block per call); stateSource
// below adapts an in-memory PersistedState to the same shape.
//
// Shard grouping must match the artifact index's: a module's units are
// exactly the units whose file has that ModuleName, listed in sorted
// path order. RestoreAssessorFrom validates this before seeding any
// cache.
type StateSource interface {
	// Target is the ASIL the snapshotted assessor judged against.
	Target() iso26262.ASIL
	// RuleIDs fingerprints the snapshotted rule set.
	RuleIDs() []string
	// Files returns the corpus in FileSet insertion order.
	Files() ([]PersistedFile, error)
	// ShardNames lists the module shards in sorted order.
	ShardNames() []string
	// ShardUnits returns a shard's per-unit facts in sorted path order.
	ShardUnits(module string) ([]artifact.UnitFacts, error)
	// CorpusFindings returns the corpus-level finding segment.
	CorpusFindings() ([]rules.Finding, error)
	// ShardFindings returns a shard's per-path finding lists, aligned
	// with its ShardUnits path order.
	ShardFindings(module string) ([][]rules.Finding, error)
	// ShardMetrics returns a shard's metric rows for the given paths
	// (the shard's snapshot-time path list), in order.
	ShardMetrics(module string, paths []string) ([]*metrics.FileMetrics, error)
}

// RestoreAssessorFrom rebuilds a warm assessor from a state source.
// The target ASIL comes from the snapshot; cfg supplies everything else
// (a nil cfg.Rules means rules.DefaultRules, which must match the
// snapshot's rule fingerprint). No source is parsed: units are
// fact-carrying stubs, hydrated on demand when a cache needs their
// ASTs. The skeleton — file set, fact stubs, sharded index — is built
// eagerly; the rule and metric caches are seeded *sealed*, pulling each
// shard's finding segments and metric rows from the source on first
// touch and deferring content hashing until a delta dirties the shard.
// A shard block that fails to load degrades to a recompute of exactly
// that shard (hydrating its stubs), never to stale or wrong output.
func RestoreAssessorFrom(cfg Config, src StateSource) (*Assessor, error) {
	cfg.TargetASIL = src.Target()
	a := NewAssessor(cfg)
	if got, want := ruleIDs(a.cfg.Rules), src.RuleIDs(); !equalStrings(got, want) {
		return nil, fmt.Errorf("core: snapshot rule set %v does not match engine rule set %v", want, got)
	}
	files, err := src.Files()
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, errors.New("core: snapshot holds no files")
	}

	fs := srcfile.NewFileSet()
	for i := range files {
		pf := &files[i]
		if pf.Path == "" {
			return nil, errors.New("core: snapshot file without a path")
		}
		if fs.Lookup(pf.Path) != nil {
			return nil, fmt.Errorf("core: snapshot holds %s twice", pf.Path)
		}
		fs.Add(&srcfile.File{Path: pf.Path, Module: pf.Module, Lang: pf.Lang, Src: pf.Src})
	}

	names := src.ShardNames()
	units := make(map[string]*ccast.TranslationUnit, len(files))
	recs := make(map[string][]*artifact.Func, len(files))
	stubs := make(map[string]bool, len(files))
	seeds := &lazySeeds{
		src:    src,
		paths:  make(map[string][]string, len(names)),
		hashes: make(map[string]func() []uint64, len(names)),
	}
	// Decode, validate, and fabricate each shard's stub units on a
	// worker pool — ShardUnits decodes disjoint snapshot blocks, the
	// file-set lookups are read-only, and fabrication writes only
	// shard-local slices. The shared maps are filled (and cross-shard
	// duplicates detected) in a sequential merge in shard name order, so
	// errors surface exactly as the sequential loop reported them.
	type shardRestore struct {
		ufs []artifact.UnitFacts
		tus []*ccast.TranslationUnit
		fas [][]*artifact.Func
		// paths and srcs pin the shard's snapshot-time path list and
		// sources, captured as (immutable) strings: a later delta replaces
		// the corpus *File structs in place (FileSet.Add), so deferred
		// hashing must not go through the file pointers or a changed
		// file's stale cache entry would validate against its own new
		// content.
		paths []string
		srcs  []string
		err   error
	}
	parts := make([]shardRestore, len(names))
	par.For(par.Workers(len(names)), len(names), func(k int) {
		m := names[k]
		p := &parts[k]
		ufs, err := src.ShardUnits(m)
		if err != nil {
			p.err = err
			return
		}
		p.ufs = ufs
		p.tus = make([]*ccast.TranslationUnit, len(ufs))
		p.fas = make([][]*artifact.Func, len(ufs))
		p.paths = make([]string, len(ufs))
		p.srcs = make([]string, len(ufs))
		for i := range ufs {
			uf := ufs[i]
			f := fs.Lookup(uf.Path)
			if f == nil {
				p.err = fmt.Errorf("core: snapshot unit %s has no file", uf.Path)
				return
			}
			if f.ModuleName() != m {
				p.err = fmt.Errorf("core: snapshot unit %s filed under shard %q but its module is %q", uf.Path, m, f.ModuleName())
				return
			}
			p.tus[i], p.fas[i] = artifact.UnitFromFacts(f, uf)
			p.paths[i], p.srcs[i] = uf.Path, f.Src
		}
	})
	nUnits := 0
	for k, m := range names {
		p := &parts[k]
		if p.err != nil {
			return nil, p.err
		}
		for i := range p.ufs {
			path := p.paths[i]
			if units[path] != nil {
				return nil, fmt.Errorf("core: snapshot holds unit %s twice", path)
			}
			units[path], recs[path] = p.tus[i], p.fas[i]
			stubs[path] = true
		}
		srcs := p.srcs
		seeds.paths[m] = p.paths
		seeds.hashes[m] = func() []uint64 {
			hs := make([]uint64, len(srcs))
			for i, s := range srcs {
				hs[i] = srcfile.HashSrc(s)
			}
			return hs
		}
		nUnits += len(p.ufs)
	}
	if nUnits != len(files) {
		return nil, fmt.Errorf("core: snapshot has %d files but %d units", len(files), nUnits)
	}
	ix, err := artifact.BuildFromRecords(units, recs)
	if err != nil {
		return nil, err
	}
	for _, m := range names {
		// The index derived the same partition the snapshot declared, in
		// the same (sorted) order — required for the positional zip of the
		// lazy shard blocks. Inequality means corrupt or inconsistent
		// grouping, not a recoverable cache miss.
		if !equalStrings(ix.Shard(m).Paths(), seeds.paths[m]) {
			return nil, fmt.Errorf("core: snapshot shard %q path list does not match the restored index", m)
		}
	}
	corpus, err := src.CorpusFindings()
	if err != nil {
		return nil, err
	}

	a.fs, a.units, a.ix = fs, units, ix
	a.base = src
	a.ruleEng.RestoreCacheLazy(ix, corpus, seeds)
	a.mcache.RestoreRowsLazy(ix, seeds)
	a.stubs = stubs
	a.ruleEng.Hydrate = a.hydratePaths
	a.mcache.Hydrate = a.hydratePaths
	return a, nil
}

// lazySeeds adapts a StateSource to the loader interfaces of the rule
// engine (rules.ShardLoader) and the metrics cache (metrics.RowLoader),
// pinning the restore-time path lists and file identities so content
// hashes computed at thaw time cover the snapshot's sources even after
// later deltas replaced corpus entries.
type lazySeeds struct {
	src    StateSource
	paths  map[string][]string
	hashes map[string]func() []uint64
}

func (l *lazySeeds) ShardKeys(m string) ([]string, []uint64, bool) {
	h := l.hashes[m]
	if h == nil {
		return nil, nil, false
	}
	return l.paths[m], h(), true
}

func (l *lazySeeds) ShardFindings(m string) ([][]rules.Finding, bool) {
	fss, err := l.src.ShardFindings(m)
	if err != nil || len(fss) != len(l.paths[m]) {
		return nil, false
	}
	return fss, true
}

func (l *lazySeeds) ShardRows(m string) ([]*metrics.FileMetrics, bool) {
	rows, err := l.src.ShardMetrics(m, l.paths[m])
	if err != nil || len(rows) != len(l.paths[m]) {
		return nil, false
	}
	for _, r := range rows {
		if r == nil {
			return nil, false
		}
	}
	return rows, true
}

// stateSource adapts an in-memory PersistedState (ExportState's output)
// to the snapshot encoder and to the lazy restore path.
type stateSource struct {
	st     *PersistedState
	names  []string
	units  map[string][]artifact.UnitFacts
	copied map[string]bool
}

// Source returns the state as a StateSource, grouping its flat maps by
// module shard once. Copied shards resolve through Base.
func (st *PersistedState) Source() StateSource {
	s := &stateSource{st: st, units: make(map[string][]artifact.UnitFacts), copied: make(map[string]bool, len(st.Copied))}
	modOf := make(map[string]string, len(st.Files))
	for i := range st.Files {
		pf := &st.Files[i]
		f := srcfile.File{Path: pf.Path, Module: pf.Module}
		modOf[pf.Path] = f.ModuleName()
	}
	for i := range st.Units {
		uf := st.Units[i]
		m, ok := modOf[uf.Path]
		if !ok {
			// No file for this unit: derive the module so the unit still
			// surfaces (as a "unit has no file" restore error) instead of
			// silently vanishing from every shard.
			f := srcfile.File{Path: uf.Path}
			m = f.ModuleName()
		}
		s.units[m] = append(s.units[m], uf)
	}
	s.names = make([]string, 0, len(s.units)+len(st.Copied))
	for m := range s.units {
		s.names = append(s.names, m)
	}
	for _, m := range st.Copied {
		s.copied[m] = true
		s.names = append(s.names, m)
	}
	sort.Strings(s.names)
	return s
}

func (s *stateSource) Target() iso26262.ASIL           { return s.st.Target }
func (s *stateSource) RuleIDs() []string               { return s.st.RuleIDs }
func (s *stateSource) Files() ([]PersistedFile, error) { return s.st.Files, nil }
func (s *stateSource) ShardNames() []string            { return s.names }

func (s *stateSource) ShardUnits(m string) ([]artifact.UnitFacts, error) {
	if s.copied[m] {
		return s.st.Base.ShardUnits(m)
	}
	return s.units[m], nil
}

func (s *stateSource) CorpusFindings() ([]rules.Finding, error) {
	return s.st.CorpusFindings, nil
}

func (s *stateSource) ShardFindings(m string) ([][]rules.Finding, error) {
	if s.copied[m] {
		return s.st.Base.ShardFindings(m)
	}
	ufs := s.units[m]
	out := make([][]rules.Finding, len(ufs))
	for i := range ufs {
		fs, ok := s.st.FileFindings[ufs[i].Path]
		if !ok {
			return nil, fmt.Errorf("core: snapshot misses the finding segment of %s", ufs[i].Path)
		}
		out[i] = fs
	}
	return out, nil
}

func (s *stateSource) ShardMetrics(m string, paths []string) ([]*metrics.FileMetrics, error) {
	if s.copied[m] {
		return s.st.Base.ShardMetrics(m, paths)
	}
	out := make([]*metrics.FileMetrics, len(paths))
	for i, p := range paths {
		fm := s.st.MetricRows[p]
		if fm == nil {
			return nil, fmt.Errorf("core: snapshot misses the metrics row of %s", p)
		}
		out[i] = fm
	}
	return out, nil
}

// StubUnits reports how many restored units are still fact-carrying
// stubs (never re-parsed since restore). Diagnostics and tests only.
func (a *Assessor) StubUnits() int { return len(a.stubs) }

// hydratePaths re-parses any still-stub units among paths and swaps the
// real ASTs (and re-analyzed records) into the index in place. Invoked
// by the rule engine at a sequential point before it walks dirty files.
// The corpus content of a stub is by construction unchanged since the
// snapshot, so hydration changes no fact, hash, or cache key.
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
