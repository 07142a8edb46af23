package coverage_test

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/cfg"
	"repro/internal/coverage"
	"repro/internal/srcfile"
)

// TestRecorderForUnitAcrossDelta verifies the delta-aware coverage path:
// after an index delta, recorders for untouched units are built from the
// same memoized CFGs (no body re-traversal), while the edited unit gets
// fresh graphs, and probe inventories always match a cold Instrument.
func TestRecorderForUnitAcrossDelta(t *testing.T) {
	fs := srcfile.NewFileSet()
	fs.AddSource("m/a.c", "int fa(int x) { if (x > 0) { return 1; } return 0; }\n")
	fs.AddSource("m/b.c", "int fb(int x) { while (x > 0) { x--; } return x; }\n")
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	ix := artifact.Build(units)

	graphsOf := func(path string) []*cfg.Graph {
		var out []*cfg.Graph
		for _, fa := range ix.UnitFuncs(path) {
			out = append(out, fa.CFG())
		}
		return out
	}
	before := graphsOf("m/a.c")
	r1 := coverage.NewRecorderForUnit(ix, "m/a.c")
	if len(r1.Funcs) != 1 || len(r1.Funcs[0].Decisions) != 1 {
		t.Fatalf("unexpected probe inventory: %+v", r1.Funcs)
	}

	// Delta: edit m/b.c only.
	f := &srcfile.File{Path: "m/b.c", Lang: srcfile.LangC,
		Src: "int fb(int x) { do { x--; } while (x > 0); return x; }\n"}
	tu, es := ccparse.Parse(f, ccparse.Options{})
	if len(es) > 0 {
		t.Fatal(es[0])
	}
	recs, globals := artifact.AnalyzeUnit(tu)
	ix.Apply(map[string]*ccast.TranslationUnit{f.Path: tu}, map[string][]*artifact.Func{f.Path: recs}, map[string][]string{f.Path: globals}, nil)

	after := graphsOf("m/a.c")
	for i := range before {
		if before[i] != after[i] {
			t.Error("untouched unit's memoized CFG was rebuilt across a delta")
		}
	}

	// Recorders built from the reused graphs keep the same inventory.
	r2 := coverage.NewRecorderForUnit(ix, "m/a.c")
	if len(r2.Funcs) != len(r1.Funcs) {
		t.Fatalf("recorder shape changed: %d vs %d", len(r2.Funcs), len(r1.Funcs))
	}
	for i := range r2.Funcs {
		if len(r2.Funcs[i].Stmts) != len(r1.Funcs[i].Stmts) ||
			len(r2.Funcs[i].Decisions) != len(r1.Funcs[i].Decisions) {
			t.Fatalf("probe inventory changed for %s", r2.Funcs[i].Name)
		}
	}

	// The edited unit's recorder reflects the new body (do-while still
	// has one decision; its hit state starts clean).
	rb := coverage.NewRecorderForUnit(ix, "m/b.c")
	if len(rb.Funcs) != 1 || len(rb.Funcs[0].Decisions) != 1 {
		t.Fatalf("edited unit inventory: %+v", rb.Funcs)
	}
	if rb.Funcs[0].Decisions[0].Kind != "do-while" {
		t.Errorf("edited unit kind = %q, want do-while", rb.Funcs[0].Decisions[0].Kind)
	}
}
