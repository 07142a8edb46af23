package artifact_test

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
)

// parseOne parses a single source file into a translation unit.
func parseOne(t *testing.T, path, src string) *ccast.TranslationUnit {
	t.Helper()
	return parseIn(t, path, "", src)
}

// applyUnits analyzes the parsed upserts and applies them, with the
// removals, as one Index.Apply: a delta's commit in core.Assessor hands
// Apply the records its per-file step analyzed.
func applyUnits(ix *artifact.Index, upserts []*ccast.TranslationUnit, removals []string) {
	units := make(map[string]*ccast.TranslationUnit, len(upserts))
	recs := make(map[string][]*artifact.Func, len(upserts))
	globals := make(map[string][]string, len(upserts))
	for _, tu := range upserts {
		p := tu.File.Path
		units[p] = tu
		recs[p], globals[p] = artifact.AnalyzeUnit(tu)
	}
	ix.Apply(units, recs, globals, removals)
}

// smallUnits builds a three-file corpus for delta tests.
func smallUnits(t *testing.T) map[string]*ccast.TranslationUnit {
	t.Helper()
	units := map[string]*ccast.TranslationUnit{}
	for p, src := range map[string]string{
		"m/a.c": "int ga;\nint fa(int x) { if (x) { return 1; } return 0; }\n",
		"m/b.c": "int fb(int x) { return fa(x) + 1; }\n",
		"n/c.c": "int gc;\nint fc(void) { return fb(2); }\n",
	} {
		units[p] = parseOne(t, p, src)
	}
	return units
}

// allFuncs lists every function record of the index in path order.
func allFuncs(ix *artifact.Index) []*artifact.Func {
	var out []*artifact.Func
	for _, p := range ix.Paths {
		out = append(out, ix.UnitFuncs(p)...)
	}
	return out
}

// TestApplyReplaceMatchesFullBuild requires an in-place Apply of one
// edited unit to produce an index equal in every observable way to a
// cold Build over the edited corpus, while reusing the untouched units'
// Func records by pointer (that reuse is what carries the memoized CFGs
// across deltas).
func TestApplyReplaceMatchesFullBuild(t *testing.T) {
	units := smallUnits(t)
	ix := artifact.Build(units)

	// Touch CFGs so memoization carry-over is observable.
	cfgBefore := map[string]interface{}{}
	for _, fa := range allFuncs(ix) {
		cfgBefore[fa.File.Path+"/"+fa.Decl.Name] = fa.CFG()
	}
	funcBefore := map[string]*artifact.Func{}
	for _, fa := range allFuncs(ix) {
		funcBefore[fa.File.Path+"/"+fa.Decl.Name] = fa
	}

	edited := parseOne(t, "m/b.c", "int gb;\nint fb(int x) { while (x > 0) { x--; } return x; }\n")
	applyUnits(ix, []*ccast.TranslationUnit{edited}, nil)

	coldUnits := map[string]*ccast.TranslationUnit{
		"m/a.c": units["m/a.c"], "n/c.c": units["n/c.c"], "m/b.c": edited,
	}
	cold := artifact.Build(coldUnits)

	requireSameIndex(t, ix, cold)

	for _, fa := range allFuncs(ix) {
		key := fa.File.Path + "/" + fa.Decl.Name
		if fa.File.Path == "m/b.c" {
			if funcBefore[key] == fa {
				t.Errorf("%s: edited unit's Func not re-analyzed", key)
			}
			continue
		}
		if funcBefore[key] != fa {
			t.Errorf("%s: untouched unit's Func was rebuilt", key)
		}
		if cfgBefore[key] != fa.CFG() {
			t.Errorf("%s: memoized CFG lost across Apply", key)
		}
	}
}

// TestApplyAddRemove covers the add and remove edges of the delta API.
func TestApplyAddRemove(t *testing.T) {
	units := smallUnits(t)
	ix := artifact.Build(units)

	added := parseOne(t, "n/d.c", "int fd(void) { return gc; }\n")
	applyUnits(ix, []*ccast.TranslationUnit{added}, nil)
	cold := artifact.Build(map[string]*ccast.TranslationUnit{
		"m/a.c": units["m/a.c"], "m/b.c": units["m/b.c"],
		"n/c.c": units["n/c.c"], "n/d.c": added,
	})
	requireSameIndex(t, ix, cold)

	applyUnits(ix, nil, []string{"m/a.c"})
	cold = artifact.Build(map[string]*ccast.TranslationUnit{
		"m/b.c": units["m/b.c"], "n/c.c": units["n/c.c"], "n/d.c": added,
	})
	requireSameIndex(t, ix, cold)
	if _, ok := ix.ByName["fa"]; ok {
		t.Error("removed unit's function still in ByName")
	}
	if _, ok := ix.GlobalNames["ga"]; ok {
		t.Error("removed unit's global still in GlobalNames")
	}

	// Removing a path that is not present is a no-op.
	before := len(allFuncs(ix))
	applyUnits(ix, nil, []string{"missing.c"})
	if len(allFuncs(ix)) != before {
		t.Error("removing a missing path changed the index")
	}
}

// requireSameIndex compares every observable view of two indexes.
func requireSameIndex(t *testing.T, got, want *artifact.Index) {
	t.Helper()
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("paths: %v vs %v", got.Paths, want.Paths)
	}
	for i := range got.Paths {
		if got.Paths[i] != want.Paths[i] {
			t.Fatalf("paths: %v vs %v", got.Paths, want.Paths)
		}
	}
	gotFuncs, wantFuncs := allFuncs(got), allFuncs(want)
	if len(gotFuncs) != len(wantFuncs) {
		t.Fatalf("func counts: %d vs %d", len(gotFuncs), len(wantFuncs))
	}
	for i := range gotFuncs {
		g, w := gotFuncs[i], wantFuncs[i]
		if g.Decl.Name != w.Decl.Name || g.File.Path != w.File.Path ||
			g.Module != w.Module || g.CCN != w.CCN || g.Returns != w.Returns ||
			len(g.Calls) != len(w.Calls) {
			t.Fatalf("func %d differs: %s/%s vs %s/%s", i,
				g.File.Path, g.Decl.Name, w.File.Path, w.Decl.Name)
		}
	}
	if len(got.ByName) != len(want.ByName) {
		t.Fatalf("ByName sizes: %d vs %d", len(got.ByName), len(want.ByName))
	}
	for name, w := range want.ByName {
		g := got.ByName[name]
		if g == nil || g.File.Path != w.File.Path || g.Decl.Name != w.Decl.Name {
			t.Fatalf("ByName[%q] differs", name)
		}
	}
	if len(got.GlobalNames) != len(want.GlobalNames) {
		t.Fatalf("GlobalNames sizes: %d vs %d", len(got.GlobalNames), len(want.GlobalNames))
	}
	for name, w := range want.GlobalNames {
		if got.GlobalNames[name] != w {
			t.Fatalf("GlobalNames[%q] = %q, want %q", name, got.GlobalNames[name], w)
		}
	}
	for p := range want.Units {
		gf, wf := got.UnitFuncs(p), want.UnitFuncs(p)
		if len(gf) != len(wf) {
			t.Fatalf("UnitFuncs(%s): %d vs %d", p, len(gf), len(wf))
		}
	}
}
