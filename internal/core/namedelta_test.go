package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/corpusgen"
	"repro/internal/obs"
	"repro/internal/srcfile"
)

// TestFirstNameDeltaParsesOnlyItsFiles pins that a delta moving names
// other files read parses and walks only the files it changes, from the
// first one on, on a cold-loaded assessor and on a restored one: a
// rename read from another shard, a void flip, a global added under a
// reader's local name, and two deltas whose names overrun the change
// feed. The readers' findings flip through their conditioned findings,
// and the changed files' ASTs do not outlive their prepare, so every unit
// is a fact stub through the commit and the rule run, and the output
// equals a cold assessor's.
func TestFirstNameDeltaParsesOnlyItsFiles(t *testing.T) {
	fs := corpusgen.New(corpusgen.Params{Modules: 3, FilesPerModule: 12,
		FuncsPerFile: 3, ViolationsPerFile: 2, CrossFile: true}, 7).FileSet()
	fs.AddSource("perception/zz_target.cc", "int ZzTarget(int v) {\n  return v + 1;\n}\nint ZzVoidable(int v) {\n  return v;\n}\n")
	fs.AddSource("planning/zz_reader.cc", "void ZzReader(int k) {\n  ZzTarget(k);\n  ZzVoidable(k);\n}\n")
	fs.AddSource("control/zz_shadow.cc", "int ZzShadow(int v) {\n  int g_zz_probe = v;\n  return g_zz_probe;\n}\n")

	var flood strings.Builder
	for i := 0; i <= artifact.FeedRetention; i++ {
		fmt.Fprintf(&flood, "void ZzFlood%d(void) {\n}\n", i)
	}
	change := func(path, src string) Delta {
		return Delta{Changed: []*srcfile.File{{Path: path, Src: src}}}
	}
	steps := []struct {
		what string
		ds   []Delta
		full bool
	}{
		{"rename read from another shard", []Delta{change("perception/zz_target.cc",
			"int ZzTarget2(int v) {\n  return v + 1;\n}\nint ZzVoidable(int v) {\n  return v;\n}\n")}, false},
		{"void flip", []Delta{change("perception/zz_target.cc",
			"int ZzTarget2(int v) {\n  return v + 1;\n}\nvoid ZzVoidable(int v) {\n  (void)v;\n}\n")}, false},
		{"global under a reader's local name", []Delta{change("prediction/zz_global.cc", "int g_zz_probe = 3;\n")}, false},
		{"feed overrun", []Delta{change("prediction/zz_flood.cc", flood.String()),
			change("planning/zz_reader.cc", "void ZzReader(int k) {\n  ZzTarget(k + 1);\n  ZzVoidable(k);\n}\n")}, true},
	}

	cold := NewAssessor(DefaultConfig())
	if err := cold.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	cold.Assess()
	st, err := cold.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreAssessorFrom(DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []struct {
		name string
		a    *Assessor
	}{{"cold", cold}, {"restored", restored}} {
		a := side.a
		fulls := new(obs.Counter)
		a.SetMetrics(FallbackMetrics{FullRechecks: fulls})
		if n := a.StubUnits(); n != a.FileSet().Len() {
			t.Fatalf("%s: %d of %d units are stubs before the deltas", side.name, n, a.FileSet().Len())
		}
		for _, step := range steps {
			what := side.name + ": " + step.what
			parsed := 0
			for _, d := range step.ds {
				res, err := a.ApplyDelta(d)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				parsed += res.Parsed
			}
			if parsed != len(step.ds) {
				t.Fatalf("%s: parsed %d files, want %d", what, parsed, len(step.ds))
			}
			if n, want := a.StubUnits(), a.FileSet().Len(); n != want {
				t.Fatalf("%s: %d stubs after the commit, want %d", what, n, want)
			}
			a.Findings()
			if n := a.RuleFilesChecked(); n != parsed {
				t.Fatalf("%s: the rule run walked %d files, want the %d the deltas parsed", what, n, parsed)
			}
			if n, want := a.StubUnits(), a.FileSet().Len(); n != want {
				t.Fatalf("%s: %d stubs after the rule run, want %d", what, n, want)
			}
			if a.RuleConditionsEvaluated() == 0 {
				t.Fatalf("%s: no conditioned finding re-evaluated", what)
			}
			if got := fulls.Value() == 1; got != step.full {
				t.Fatalf("%s: %d feed overruns counted", what, fulls.Value())
			}
			if got, want := renderAssessment(a, a.Assess()), coldRender(t, DefaultConfig(), a.FileSet()); !bytes.Equal(got, want) {
				t.Fatalf("%s: output differs from a cold assessor's", what)
			}
		}
	}
}
