package core

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// This file is the per-file step every parse outside a delta goes
// through: a cold load runs it for every file, and a restore for the
// files of each shard whose snapshot blocks it cannot use. A worker
// parses the file into its own arena, extracts the file's facts, walks
// the rules over it and computes its metrics row, then clears each
// record's declaration and resets the arena for its next file. What the
// step keeps holds facts only, so no AST outlives its own file's step,
// and the load then fills the caches from those facts as a restore fills
// them from a snapshot's.

// fileState is what the per-file step keeps of one file: its function
// records (with no declaration), its file-scope variable names, its rule
// walk and its metrics row.
type fileState struct {
	recs    []*artifact.Func
	globals []string
	walk    rules.FileWalk
	row     *metrics.FileMetrics
}

// loader is one worker's state for the per-file step: an arena reset
// after each file, and a rule walker. A loader is never shared between
// goroutines, and it lives no longer than the load that made it.
type loader struct {
	opts   ccparse.Options
	arena  ccast.Arena
	walker *rules.Walker
}

func (a *Assessor) newLoader() *loader {
	return &loader{opts: ccparse.Options{Intern: a.intern}, walker: rules.NewWalker(a.cfg.Rules)}
}

// load runs the per-file step for f. The arena is reset only once the
// step's outputs are built: the records are demoted (Func.Demote), and
// the names, findings, conditions and row hold no node (arenaescape
// enforces that for the types that outlive a unit).
func (l *loader) load(f *srcfile.File) (fileState, error) {
	tu, errs := ccparse.ParseInto(f, l.opts, &l.arena)
	if tu == nil {
		return fileState{}, fmt.Errorf("core: file %s failed to parse: %v", f.Path, errs)
	}
	var st fileState
	st.recs, st.globals = artifact.AnalyzeUnit(tu)
	st.walk = l.walker.Walk(tu, st.recs)
	st.row = metrics.FileRow(tu, st.recs)
	for _, fa := range st.recs {
		fa.Demote()
	}
	l.arena.Reset()
	return st, nil
}

// LoadFileSet loads a corpus (user-provided source trees take this
// path): each file goes through the per-file step on a worker pool, the
// index is built from the records (artifact.BuildFromRecords, as a
// restore builds it), and the rule and metrics caches are filled from
// the walks and rows as a restore fills them from a snapshot (the rule
// engine's Fill and the metrics cache's Fill). Every unit is a stub
// afterwards. Error-tolerant parsing yields BadDecls; only a file that
// produced no unit at all fails the load, and then the assessor is left
// as it was.
func (a *Assessor) LoadFileSet(fs *srcfile.FileSet) error {
	files := fs.Files()
	states := make([]fileState, len(files))
	errs := make([]error, len(files))
	workers := par.Workers(len(files))
	loaders := make([]*loader, workers)
	for w := range loaders {
		loaders[w] = a.newLoader()
	}
	par.ForWorkers(workers, len(files), func(w, i int) {
		states[i], errs[i] = loaders[w].load(files[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	units := make(map[string]*ccast.TranslationUnit, len(files))
	recs := make(map[string][]*artifact.Func, len(files))
	globals := make(map[string][]string, len(files))
	byPath := make(map[string]*fileState, len(files))
	for i, f := range files {
		units[f.Path] = &ccast.TranslationUnit{File: f}
		recs[f.Path], globals[f.Path] = states[i].recs, states[i].globals
		byPath[f.Path] = &states[i]
	}
	ix, err := artifact.BuildFromRecords(units, recs, globals)
	if err != nil {
		return err
	}
	names := ix.ShardNames()
	walks := make(map[string][]rules.FileWalk, len(names))
	rows := make(map[string][]*metrics.FileMetrics, len(names))
	for _, m := range names {
		paths := ix.Shard(m).Paths()
		w, r := make([]rules.FileWalk, len(paths)), make([]*metrics.FileMetrics, len(paths))
		for j, p := range paths {
			w[j], r[j] = byPath[p].walk, byPath[p].row
		}
		walks[m], rows[m] = w, r
	}

	a.fs, a.units, a.ix = fs, units, ix
	a.parsed = make(map[string]bool)
	a.encoded = nil
	a.ruleEng.Fill(ix, walks)
	a.stats = a.ruleEng.Stats()
	a.findings = nil
	a.fw = a.mcache.Fill(ix, rows)
	a.arch = nil
	a.gen++
	return nil
}
