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

// This file is the per-file step every parse goes through: a cold load
// runs it for every file, a delta's prepare for each file it changed,
// and a restore for the files of each shard whose snapshot blocks it
// cannot use. A worker parses the file into its loader's arena, extracts
// the file's facts, walks the rules over it and computes its metrics
// row, then clears each record's declaration and resets the arena for
// its next file. What the step keeps holds facts only, so no AST
// outlives its own file's step: the index and both caches are built
// from those facts, as a restore builds them from a snapshot's.

// fileState is what the per-file step keeps of one file: its function
// records (with no declaration), its file-scope variable names, its rule
// walk and its metrics row.
type fileState struct {
	recs    []*artifact.Func
	globals []string
	walk    rules.FileWalk
	row     *metrics.FileMetrics
}

// loader is one worker's state for the per-file step: parser options
// bound to the assessor's interner while a step holds it, an arena reset
// after each file, and a rule walker. Loaders live in the assessor's
// pool (Assessor.loaders); one is never shared between goroutines, nor
// between assessors.
type loader struct {
	opts   ccparse.Options
	arena  ccast.Arena
	walker *rules.Walker
}

// load runs the per-file step for f. The arena is reset only once the
// step's outputs are built: the records are demoted (Func.Demote), and
// the names, findings, conditions and row hold no node (arenaescape
// enforces that for the types that outlive a unit).
func (l *loader) load(f *srcfile.File) (fileState, error) {
	defer l.arena.Reset()
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
	return st, nil
}

// step runs the per-file step over files on a worker pool, each worker
// on a loader drawn from the assessor's pool and returned to it after,
// and returns each file's state in files' order. Error-tolerant parsing
// yields BadDecls; only a file that produced no unit at all fails the
// step, with the first such file's error. It reads nothing of the
// assessor but its interner and rules, so prepares may run it
// concurrently.
func (a *Assessor) step(files []*srcfile.File) ([]fileState, error) {
	states := make([]fileState, len(files))
	errs := make([]error, len(files))
	workers := par.Workers(len(files))
	loaders := make([]*loader, workers)
	par.ForWorkers(workers, len(files), func(w, i int) {
		if loaders[w] == nil {
			loaders[w] = a.loaders.Get().(*loader)
			loaders[w].opts.Intern = a.intern
		}
		states[i], errs[i] = loaders[w].load(files[i])
	})
	for _, l := range loaders {
		if l != nil {
			l.opts.Intern = nil // an idle loader pins nothing of the assessor
			a.loaders.Put(l)
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return states, nil
}

// LoadFileSet loads a corpus (user-provided source trees take this
// path): each file goes through the per-file step, the index is built
// from the records (artifact.BuildFromRecords, as a restore builds it),
// and the rule and metrics caches are filled from the walks and rows as
// a restore fills them from a snapshot (the rule engine's Fill and the
// metrics cache's Fill). Every unit is a stub afterwards. Only a file
// that produced no unit at all fails the load, and then the assessor is
// left as it was.
func (a *Assessor) LoadFileSet(fs *srcfile.FileSet) error {
	files := fs.Files()
	states, err := a.step(files)
	if err != nil {
		return err
	}
	units := make(map[string]*ccast.TranslationUnit, len(files))
	recs := make(map[string][]*artifact.Func, len(files))
	globals := make(map[string][]string, len(files))
	walks := make(map[string]rules.FileWalk, len(files))
	rows := make(map[string]*metrics.FileMetrics, len(files))
	for i, f := range files {
		st := &states[i]
		units[f.Path] = &ccast.TranslationUnit{File: f}
		recs[f.Path], globals[f.Path] = st.recs, st.globals
		walks[f.Path], rows[f.Path] = st.walk, st.row
	}
	ix, err := artifact.BuildFromRecords(units, recs, globals)
	if err != nil {
		return err
	}

	a.fs, a.units, a.ix = fs, units, ix
	clear(a.walks)
	clear(a.rows)
	a.encoded = nil
	a.ruleEng.Fill(ix, walks)
	a.stats = a.ruleEng.Stats()
	a.findings = nil
	a.fw = a.mcache.Fill(ix, rows)
	a.arch = nil
	a.gen++
	return nil
}
