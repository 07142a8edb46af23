package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/ccast"
	"repro/internal/srcfile"
)

// bodyRefs returns weak pointers to every body node of the units under
// paths; it holds no strong pointer into them once it returns.
//
//go:noinline
func bodyRefs(a *Assessor, paths ...string) []weak.Pointer[byte] {
	var wps []weak.Pointer[byte]
	for _, p := range paths {
		for _, fn := range a.units[p].Funcs() {
			ccast.Walk(fn.Body, func(n ccast.Node) bool {
				wps = append(wps, weak.Make((*byte)(reflect.ValueOf(n).UnsafePointer())))
				return true
			})
		}
	}
	return wps
}

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

// TestAssessReleasesASTs pins that no AST outlives the step that needs
// it. A cold load keeps none: right after LoadFileSet every unit is a
// stub and no record holds a declaration, yet the rule engine and the
// metrics cache have read every file. A restore whose o/ shard lost its
// finding block runs that shard through the same per-file step, so
// nothing is parsed after it either. A delta-parsed unit's body nodes
// die at the first collection after the Assess that demotes it.
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

	// Renaming libfn moves a name o/reader.c reads: the delta parses
	// n/lib.c, and o/reader.c's finding flips without a walk.
	if _, err := a.ApplyDelta(Delta{Changed: []*srcfile.File{{Path: "n/lib.c",
		Src: "int libfn2(int v) { if (v) { return v; } return 2; }\n"}}}); err != nil {
		t.Fatal(err)
	}
	a.Findings()
	if n := a.RuleFilesChecked(); n != 1 {
		t.Fatalf("rename walked %d files, want the edited file", n)
	}
	parsed := bodyRefs(a, "n/lib.c")
	if len(parsed) == 0 {
		t.Fatal("no delta-parsed body nodes tracked")
	}
	a.Assess()
	if n := a.StubUnits(); n != fs.Len() {
		t.Fatalf("%d of %d units are stubs after Assess", n, fs.Len())
	}

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

	runtime.GC()
	live := 0
	for _, wp := range parsed {
		if wp.Value() != nil {
			live++
		}
	}
	if live > 0 {
		t.Errorf("%d of %d delta-parsed body nodes survive one collection after Assess", live, len(parsed))
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(r)
}
