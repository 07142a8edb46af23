package metrics_test

import (
	"reflect"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/metrics"
	"repro/internal/srcfile"
)

func parseSet(t *testing.T, srcs map[string]string) *artifact.Index {
	t.Helper()
	fs := srcfile.NewFileSet()
	for p, src := range srcs {
		fs.AddSource(p, src)
	}
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	return artifact.Build(units)
}

// requireSameMetrics compares the cached result against the cache-free
// reference field by field (FileMetrics are compared by value, not
// pointer, since the cache intentionally shares rows).
func requireSameMetrics(t *testing.T, stage string, got, want *metrics.FrameworkMetrics) {
	t.Helper()
	if got.TotalLOC != want.TotalLOC || got.TotalNLOC != want.TotalNLOC ||
		got.TotalFunc != want.TotalFunc || got.ModerateOrWorse != want.ModerateOrWorse {
		t.Fatalf("%s: totals differ: %+v vs %+v", stage, got, want)
	}
	if len(got.Files) != len(want.Files) {
		t.Fatalf("%s: file counts differ: %d vs %d", stage, len(got.Files), len(want.Files))
	}
	for i := range got.Files {
		g, w := got.Files[i], want.Files[i]
		if g.Path != w.Path || g.Module != w.Module || g.Lang != w.Lang ||
			g.LOC != w.LOC || g.NLOC != w.NLOC || len(g.Functions) != len(w.Functions) {
			t.Fatalf("%s: file row %s differs", stage, g.Path)
		}
		for j := range g.Functions {
			if !reflect.DeepEqual(*g.Functions[j], *w.Functions[j]) {
				t.Fatalf("%s: function row %s/%s differs", stage, g.Path, g.Functions[j].Name)
			}
		}
	}
	if len(got.Modules) != len(want.Modules) {
		t.Fatalf("%s: module counts differ", stage)
	}
	for i := range got.Modules {
		if !reflect.DeepEqual(*got.Modules[i], *want.Modules[i]) {
			t.Fatalf("%s: module %s differs", stage, got.Modules[i].Name)
		}
	}
}

func TestCacheMatchesAnalyzeIndexed(t *testing.T) {
	ix := parseSet(t, map[string]string{
		"m/a.c": "int fa(int x) { if (x) { return 1; } return 0; }\n",
		"m/b.c": "// comment\nint fb(void) { return 2; }\n",
		"n/c.c": "int gc;\nint fc(int a, int b) { return a > b ? a : b; }\n",
	})
	c := metrics.NewCache()

	requireSameMetrics(t, "cold", c.AnalyzeIndexed(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 3 {
		t.Fatalf("cold dirty = %d, want 3", c.LastDirty())
	}

	requireSameMetrics(t, "no-op", c.AnalyzeIndexed(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 0 {
		t.Fatalf("no-op dirty = %d, want 0", c.LastDirty())
	}

	// Edit one file: only that row recomputes.
	f := &srcfile.File{Path: "m/b.c", Lang: srcfile.LangC,
		Src: "int fb(void) { int k; k = 3; return k; }\n"}
	tu, errs := ccparse.Parse(f, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	ix.Apply([]*ccast.TranslationUnit{tu}, nil)
	requireSameMetrics(t, "edit", c.AnalyzeIndexed(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 1 {
		t.Fatalf("edit dirty = %d, want 1", c.LastDirty())
	}

	// Rehydrate m/a.c with an identical re-parse, as a restored assessor
	// does to a stub, then edit its shard sibling m/b.c. The shard's
	// generation moves, so the cache compares unit generations: a
	// rehydrate moves none, and only the edited file recomputes.
	fa := ix.Units["m/a.c"].File
	re, errs := ccparse.Parse(&srcfile.File{Path: fa.Path, Lang: fa.Lang, Src: fa.Src}, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	re.File = fa
	ix.Rehydrate(re)
	sib, errs := ccparse.Parse(&srcfile.File{Path: "m/b.c", Lang: srcfile.LangC,
		Src: "int fb(void) { return 4; }\n"}, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	ix.Apply([]*ccast.TranslationUnit{sib}, nil)
	requireSameMetrics(t, "rehydrate then sibling edit", c.AnalyzeIndexed(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 1 {
		t.Fatalf("rehydrate then sibling edit dirty = %d, want 1", c.LastDirty())
	}

	// Remove one file: nothing recomputes, stale entry dropped.
	ix.Apply(nil, []string{"m/a.c"})
	requireSameMetrics(t, "remove", c.AnalyzeIndexed(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 0 {
		t.Fatalf("remove dirty = %d, want 0", c.LastDirty())
	}
}

// TestCacheShardRecreation is the regression gate for shard-generation
// collisions: a module removed in one delta and re-created in a later
// one gets a brand-new artifact shard. Generations are issued from an
// index-wide sequence precisely so the re-created shard can never
// repeat a generation its predecessor handed out — otherwise the cache
// would serve the deleted corpus state's rows for the module.
func TestCacheShardRecreation(t *testing.T) {
	ix := parseSet(t, map[string]string{
		"a/1.c": "int fa1(int x) { return x; }\nint fa2(int x) { return x + 1; }\n",
		"b/1.c": "int fb(int x) { return x; }\n",
	})
	c := metrics.NewCache()
	requireSameMetrics(t, "cold", c.AnalyzeIndexed(ix), metrics.AnalyzeIndexed(ix))

	// Delta 1: remove all of module a, add module c — the shard count
	// stays the same, and shard a dies.
	added, errs := ccparse.Parse(&srcfile.File{Path: "c/1.c", Lang: srcfile.LangC,
		Src: "int fcx(int x) { return x; }\n"}, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	ix.Apply([]*ccast.TranslationUnit{added}, []string{"a/1.c"})
	requireSameMetrics(t, "kill shard a", c.AnalyzeIndexed(ix), metrics.AnalyzeIndexed(ix))

	// Delta 2: re-create module a with different content (one function,
	// not two). A stale cache entry for the old shard must not survive.
	reborn, errs := ccparse.Parse(&srcfile.File{Path: "a/2.c", Lang: srcfile.LangC,
		Src: "int fa9(int x) { return x * 3; }\n"}, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	ix.Apply([]*ccast.TranslationUnit{reborn}, nil)
	got := c.AnalyzeIndexed(ix)
	requireSameMetrics(t, "reborn shard a", got, metrics.AnalyzeIndexed(ix))
	if got.TotalFunc != 3 {
		t.Fatalf("TotalFunc = %d after shard recreation, want 3", got.TotalFunc)
	}
}
