package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/srcfile"
)

// requireNoDecls fails if any record of the assessor's index still
// holds a declaration, that is, a node of a parsed unit.
func requireNoDecls(t *testing.T, what string, a *Assessor) {
	t.Helper()
	for _, p := range a.Index().Paths {
		for _, fa := range a.Index().UnitFuncs(p) {
			if fa.Decl != nil {
				t.Fatalf("%s: record %s of %s holds its declaration", what, fa.Name, p)
			}
		}
	}
}

// TestAssessReleasesASTs pins that no AST outlives the per-file step
// that needs it. A cold load keeps none: right after LoadFileSet every
// unit is a stub and no record holds a declaration, yet the rule engine
// and the metrics cache have read every file. A delta keeps none either:
// right after its CommitDelta, before any read, every unit is a stub and
// no record holds a declaration, and the rule run that follows takes the
// walk of the renamed file alone. A restore whose o/ shard lost its
// finding block runs that shard through the same step, so nothing is
// parsed after it either.
func TestAssessReleasesASTs(t *testing.T) {
	fs := srcfile.NewFileSet()
	for i := 0; i < 12; i++ {
		fs.AddSource(fmt.Sprintf("m%d/f%d.c", i%3, i), fmt.Sprintf(
			"int g_%d;\nint work%d(int x) {\n  int y = x * %d;\n  if (y > 9) { return y; }\n  for (int i = 0; i < x; i++) { y += i; }\n  return y + g_%d;\n}\n", i, i, i, i))
	}
	fs.AddSource("n/lib.c", "int libfn(int v) { if (v) { return v; } return 1; }\n")
	fs.AddSource("o/reader.c", "void reader(int k) { while (k > 0) { libfn(k); k--; } }\n")
	a := NewAssessor(DefaultConfig())
	if err := a.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	if n := a.StubUnits(); n != fs.Len() {
		t.Fatalf("%d of %d units are stubs after the load", n, fs.Len())
	}
	if g := a.Gen(); g != 1 {
		t.Fatalf("the load moved Gen to %d, want 1", g)
	}
	if r, m := a.RuleFilesChecked(), a.MetricFilesComputed(); r != fs.Len() || m != fs.Len() {
		t.Fatalf("the load walked %d files and computed %d metric rows, want %d of each", r, m, fs.Len())
	}
	requireNoDecls(t, "after the load", a)
	a.Assess()

	// Renaming libfn moves a name o/reader.c reads: the delta's step
	// walks n/lib.c, and o/reader.c's finding flips without a walk.
	pd, err := a.PrepareDelta(Delta{Changed: []*srcfile.File{{Path: "n/lib.c",
		Src: "int libfn2(int v) { if (v) { return v; } return 2; }\n"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.CommitDelta(pd); err != nil {
		t.Fatal(err)
	}
	if n := a.StubUnits(); n != fs.Len() {
		t.Fatalf("%d of %d units are stubs after the commit", n, fs.Len())
	}
	requireNoDecls(t, "after the commit", a)
	a.Findings()
	if n := a.RuleFilesChecked(); n != 1 {
		t.Fatalf("rename walked %d files, want the edited file", n)
	}
	a.Assess()

	// A restore whose o/ shard lost its finding block recomputes it and
	// parses nothing that outlives the restore.
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Shards {
		if st.Shards[i].Module == "o" {
			st.Shards[i].Findings = nil
		}
	}
	r, err := RestoreAssessorFrom(DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.StubUnits(); n != fs.Len() {
		t.Fatalf("restore left %d of %d units stubs, want all", n, fs.Len())
	}
	requireNoDecls(t, "after the restore", r)
	if !reflect.DeepEqual(r.Findings(), a.Findings()) {
		t.Fatal("restored findings differ from the live assessor's")
	}
}
