package store_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/obs"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// TestDemotedStateMatchesRestored pins that a cold-loaded, assessed
// assessor holds the state a restore builds. Assessing moves no
// snapshot byte, and a script of deltas — a body edit, a rename read
// from another shard, an add, a remove, a delta moving 130 names, and
// two deltas before one assessment that overrun the change feed —
// answers byte for byte alike on the cold-loaded assessor and on one
// restored from its export, each taking the walks of exactly the files
// the deltas changed, and re-evaluating conditioned findings exactly
// when a delta moved a name one waits on. At rest after every step, on
// both sides, every record the index's views hold is one its unit lists
// and carries no declaration.
func TestDemotedStateMatchesRestored(t *testing.T) {
	gen := corpusgen.New(corpusgen.Params{Modules: 4, FilesPerModule: 40,
		FuncsPerFile: 3, ViolationsPerFile: 2, CrossFile: true}, 19)
	fs := gen.FileSet()
	target, reader := "perception/zz_xtarget.cc", "planning/zz_xreader.cc"
	fs.AddSource(target, "int ZzTarget(int v) {\n  return v + 1;\n}\n")
	fs.AddSource(reader, "void ZzReader(int k) {\n  ZzTarget(k);\n}\n")
	cold := core.NewAssessor(core.DefaultConfig())
	if err := cold.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	before := store.EncodeSnapshot(mustExport(t, cold), 7)
	cold.Assess()
	if n := cold.StubUnits(); n != fs.Len() {
		t.Fatalf("%d of %d units are stubs after Assess", n, fs.Len())
	}
	if after := store.EncodeSnapshot(mustExport(t, cold), 7); !bytes.Equal(before, after) {
		t.Fatalf("Assess moved the snapshot encode: %d vs %d bytes", len(before), len(after))
	}
	restored, err := core.RestoreAssessorFrom(core.DefaultConfig(), mustExport(t, cold))
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "restored", cold, restored)
	requireRecordsAtRest(t, "restored", cold)
	requireRecordsAtRest(t, "restored", restored)

	edited := gen.Paths()[3]
	if !strings.Contains(gen.Source(edited), "return ") {
		t.Fatalf("%s has no return statement to edit", edited)
	}
	var bulk, flood strings.Builder
	for i := 0; i < 130; i++ {
		fmt.Fprintf(&bulk, "int ZzBulk%d(int v) {\n  return v + %d;\n}\n", i, i)
	}
	for i := 0; i <= artifact.FeedRetention; i++ {
		fmt.Fprintf(&flood, "void ZzFlood%d(void) {\n}\n", i)
	}
	change := func(path, src string) []core.Delta {
		return []core.Delta{{Changed: []*srcfile.File{{Path: path, Src: src}}}}
	}
	script := []struct {
		what string
		ds   []core.Delta
		// reads: the deltas move a name reader's conditioned finding
		// waits on; full: the second delta drops the first's feed
		// entries before the engine reads them, so every condition is
		// re-evaluated.
		reads, full bool
	}{
		{"body edit", change(edited, strings.Replace(gen.Source(edited), "return ", "return 0 + ", 1)), false, false},
		{"rename read from another shard", change(target, "int ZzRenamed(int v) {\n  return v + 1;\n}\n"), true, false},
		{"add", change("prediction/zz_xadd.cc", "int ZzTarget(int v) {\n  return v - 1;\n}\n"), true, false},
		{"remove", []core.Delta{{Removed: []string{"prediction/zz_xadd.cc"}}}, true, false},
		{"130 names", change("localization/zz_bulk.cc", bulk.String()), false, false},
		{"feed overrun", append(change("localization/zz_flood.cc", flood.String()),
			change(edited, gen.Source(edited))...), false, true},
	}

	type side struct {
		a        *core.Assessor
		fullRuns *obs.Counter
		fulls    int64
	}
	sides := []*side{{a: cold}, {a: restored}}
	for _, s := range sides {
		s.fullRuns = new(obs.Counter)
		s.a.SetMetrics(core.FallbackMetrics{FullRechecks: s.fullRuns})
	}
	for _, step := range script {
		parsed := make([]int, len(sides))
		for i, s := range sides {
			for _, d := range step.ds {
				res, err := s.a.ApplyDelta(d)
				if err != nil {
					t.Fatalf("%s: %v", step.what, err)
				}
				parsed[i] += res.Parsed
			}
		}
		requireIdentical(t, step.what, cold, restored)
		for i, s := range sides {
			if checked := s.a.RuleFilesChecked(); checked != parsed[i] {
				t.Fatalf("%s: side %d walked %d files, want the %d it parsed", step.what, i, checked, parsed[i])
			}
			if conds := s.a.RuleConditionsEvaluated(); (conds > 0) != (step.reads || step.full) {
				t.Fatalf("%s: side %d re-evaluated %d conditions; want some: %v", step.what, i, conds, step.reads || step.full)
			}
			if step.full {
				s.fulls++
			}
			if got := s.fullRuns.Value(); got != s.fulls {
				t.Fatalf("%s: side %d counted %d full re-checks, want %d", step.what, i, got, s.fulls)
			}
			if n := s.a.StubUnits(); n != s.a.FileSet().Len() {
				t.Fatalf("%s: side %d holds %d parsed units after Assess", step.what, i, s.a.FileSet().Len()-n)
			}
			requireRecordsAtRest(t, fmt.Sprintf("%s: side %d", step.what, i), s.a)
		}
	}
	requireIdentical(t, "script vs cold", coldAssessor(t, cold), cold)
}

// requireRecordsAtRest checks every record in the index's per-unit
// lists and its ByName champions: each champion must be a record its
// unit lists (UnitFuncs), and no record may hold a declaration.
func requireRecordsAtRest(t *testing.T, what string, a *core.Assessor) {
	t.Helper()
	ix := a.Index()
	listed := make(map[*artifact.Func]bool, len(ix.ByName))
	for _, p := range ix.Paths {
		for _, fa := range ix.UnitFuncs(p) {
			listed[fa] = true
		}
	}
	check := func(view string, fa *artifact.Func) {
		t.Helper()
		if !listed[fa] {
			t.Fatalf("%s: %s holds a record of %s its unit no longer lists", what, view, fa.Name)
		}
		if fa.Decl != nil {
			t.Fatalf("%s: %s holds a record of %s with a declaration at rest", what, view, fa.Name)
		}
	}
	for _, p := range ix.Paths {
		for _, fa := range ix.UnitFuncs(p) {
			check("UnitFuncs("+p+")", fa)
		}
	}
	for name, fa := range ix.ByName {
		check("ByName["+name+"]", fa)
	}
}
