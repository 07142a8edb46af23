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

// TestAssessReleasesASTs pins that Assess leaves facts, not ASTs: body
// nodes of units from one ParseAll batch, of a delta-parsed unit and of
// a unit a restore parsed (its shard's finding block unusable) all die
// at the first collection after the Assess that demotes them. A batch
// unit that survived would keep its worker arena's chunks, and with them
// its neighbours' nodes, alive.
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
	var batch []string
	for _, f := range fs.Files() {
		batch = append(batch, f.Path)
	}
	wps := bodyRefs(a, batch...)
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
	a.Assess()
	if n := a.StubUnits(); n != fs.Len() {
		t.Fatalf("%d of %d units are stubs after Assess", n, fs.Len())
	}

	// A restore whose o/ shard lost its finding block parses that shard.
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
	if n := r.StubUnits(); n != fs.Len()-1 {
		t.Fatalf("restore left %d of %d units stubs, want all but o/reader.c", n, fs.Len())
	}
	restored := bodyRefs(r, "o/reader.c")
	if len(wps) == 0 || len(parsed) == 0 || len(restored) == 0 {
		t.Fatalf("body nodes tracked: %d batch, %d delta-parsed, %d restore-parsed; want some of each",
			len(wps), len(parsed), len(restored))
	}
	r.Assess()
	if n := r.StubUnits(); n != fs.Len() {
		t.Fatalf("%d of %d restored units are stubs after Assess", n, fs.Len())
	}

	runtime.GC()
	for _, c := range []struct {
		what string
		wps  []weak.Pointer[byte]
	}{{"batch", wps}, {"delta-parsed", parsed}, {"restore-parsed", restored}} {
		live := 0
		for _, wp := range c.wps {
			if wp.Value() != nil {
				live++
			}
		}
		if live > 0 {
			t.Errorf("%d of %d %s body nodes survive one collection after Assess", live, len(c.wps), c.what)
		}
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(r)
}
