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
	if got.TotalFiles != want.TotalFiles || got.TotalLOC != want.TotalLOC || got.TotalNLOC != want.TotalNLOC ||
		got.TotalFunc != want.TotalFunc || got.ModerateOrWorse != want.ModerateOrWorse {
		t.Fatalf("%s: totals differ: %+v vs %+v", stage, got, want)
	}
	gotFiles, wantFiles := got.Files(), want.Files()
	if len(gotFiles) != len(wantFiles) || len(wantFiles) != want.TotalFiles {
		t.Fatalf("%s: file counts differ: %d vs %d (TotalFiles %d)", stage, len(gotFiles), len(wantFiles), want.TotalFiles)
	}
	for i := range gotFiles {
		g, w := gotFiles[i], wantFiles[i]
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

// cached drives a metrics.Cache as core.Assessor does: its first run
// fills the cache from every file's row, and each later run hands it
// the rows of the units Apply upserted since the previous one.
type cached struct {
	*metrics.Cache
	seen uint64 // the index generation of the previous run
}

func newCached() *cached { return &cached{Cache: metrics.NewCache()} }

func (c *cached) run(ix *artifact.Index) *metrics.FrameworkMetrics {
	rows := make(map[string]*metrics.FileMetrics)
	for _, p := range ix.Paths {
		if ix.UnitGen(p) > c.seen {
			rows[p] = metrics.FileRow(ix.Units[p], ix.UnitFuncs(p))
		}
	}
	first := c.seen == 0
	c.seen = ix.Gen()
	if first {
		return c.Fill(ix, rows)
	}
	return c.AnalyzeIndexed(ix, rows)
}

// applyUnits analyzes the parsed upserts and applies them, with the
// removals, as one Index.Apply, as a delta's commit does.
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

func TestCacheMatchesAnalyzeIndexed(t *testing.T) {
	ix := parseSet(t, map[string]string{
		"m/a.c": "int fa(int x) { if (x) { return 1; } return 0; }\n",
		"m/b.c": "// comment\nint fb(void) { return 2; }\n",
		"n/c.c": "int gc;\nint fc(int a, int b) { return a > b ? a : b; }\n",
	})
	c := newCached()

	requireSameMetrics(t, "cold", c.run(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 3 {
		t.Fatalf("cold dirty = %d, want 3", c.LastDirty())
	}

	requireSameMetrics(t, "no-op", c.run(ix), metrics.AnalyzeIndexed(ix))
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
	applyUnits(ix, []*ccast.TranslationUnit{tu}, nil)
	requireSameMetrics(t, "edit", c.run(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 1 {
		t.Fatalf("edit dirty = %d, want 1", c.LastDirty())
	}

	// Edit m/b.c again. The shard's generation moves, so the cache
	// compares unit generations, and takes only the edited file's row:
	// it is handed no other.
	sib, errs := ccparse.Parse(&srcfile.File{Path: "m/b.c", Lang: srcfile.LangC,
		Src: "int fb(void) { return 4; }\n"}, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	applyUnits(ix, []*ccast.TranslationUnit{sib}, nil)
	requireSameMetrics(t, "sibling edit", c.run(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 1 {
		t.Fatalf("sibling edit dirty = %d, want 1", c.LastDirty())
	}

	// Remove one file: nothing recomputes, stale entry dropped.
	applyUnits(ix, nil, []string{"m/a.c"})
	requireSameMetrics(t, "remove", c.run(ix), metrics.AnalyzeIndexed(ix))
	if c.LastDirty() != 0 {
		t.Fatalf("remove dirty = %d, want 0", c.LastDirty())
	}

	// The partials move by each changed row's difference. m/big.c holds
	// module m's MaxCCN and its only CCN>10 function: replacing or
	// removing it must rescan for the maximum and drop the OverCCN entry
	// and the moderate-or-worse count it leaves at zero.
	steps := []struct {
		name    string
		applies []map[string]string
		dirty   int
	}{
		{"add the MaxCCN holder", []map[string]string{{"m/big.c": bigCCN}}, 1},
		{"replace it below every threshold", []map[string]string{{"m/big.c": "int big(int x) { return x; }\n"}}, 1},
		{"two applies before one update", []map[string]string{
			{"m/big.c": bigCCN},
			{"m/b.c": "int fb(void) { if (1) { return 5; } return 6; }\n"},
		}, 2},
		{"remove the MaxCCN holder", []map[string]string{{"m/big.c": ""}}, 0},
		{"a file edited twice and one added and removed", []map[string]string{
			{"m/b.c": bigCCN + "int fb(void) { return 7; }\n", "m/tmp.c": bigCCN},
			{"m/b.c": "int fb(void) { return 8; }\n", "m/tmp.c": ""},
		}, 1},
	}
	for _, st := range steps {
		for _, files := range st.applies {
			applyMetricFiles(t, ix, files)
		}
		requireSameMetrics(t, st.name, c.run(ix), metrics.AnalyzeIndexed(ix))
		if c.LastDirty() != st.dirty {
			t.Fatalf("%s dirty = %d, want %d", st.name, c.LastDirty(), st.dirty)
		}
	}
}

// bigCCN defines a function of CCN 12: one above Figure 3's first
// threshold and in the moderate band.
const bigCCN = "int big(int x) {\n" +
	"  if (x > 1) { x++; } if (x > 2) { x++; } if (x > 3) { x++; } if (x > 4) { x++; }\n" +
	"  if (x > 5) { x++; } if (x > 6) { x++; } if (x > 7) { x++; } if (x > 8) { x++; }\n" +
	"  if (x > 9) { x++; } if (x > 10) { x++; } if (x > 11) { x++; }\n" +
	"  return x;\n}\n"

// applyMetricFiles applies one step map (path → new source, "" for a
// removal) as one Index.Apply.
func applyMetricFiles(t *testing.T, ix *artifact.Index, files map[string]string) {
	t.Helper()
	var upserts []*ccast.TranslationUnit
	var removals []string
	for p, src := range files {
		if src == "" {
			removals = append(removals, p)
			continue
		}
		tu, errs := ccparse.Parse(&srcfile.File{Path: p, Lang: srcfile.LanguageForPath(p), Src: src}, ccparse.Options{})
		if len(errs) > 0 {
			t.Fatalf("parse %s: %v", p, errs[0])
		}
		upserts = append(upserts, tu)
	}
	applyUnits(ix, upserts, removals)
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
	c := newCached()
	requireSameMetrics(t, "cold", c.run(ix), metrics.AnalyzeIndexed(ix))

	// Delta 1: remove all of module a, add module c — the shard count
	// stays the same, and shard a dies.
	added, errs := ccparse.Parse(&srcfile.File{Path: "c/1.c", Lang: srcfile.LangC,
		Src: "int fcx(int x) { return x; }\n"}, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	applyUnits(ix, []*ccast.TranslationUnit{added}, []string{"a/1.c"})
	requireSameMetrics(t, "kill shard a", c.run(ix), metrics.AnalyzeIndexed(ix))

	// Delta 2: re-create module a with different content (one function,
	// not two). A stale cache entry for the old shard must not survive.
	reborn, errs := ccparse.Parse(&srcfile.File{Path: "a/2.c", Lang: srcfile.LangC,
		Src: "int fa9(int x) { return x * 3; }\n"}, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	applyUnits(ix, []*ccast.TranslationUnit{reborn}, nil)
	got := c.run(ix)
	requireSameMetrics(t, "reborn shard a", got, metrics.AnalyzeIndexed(ix))
	if got.TotalFunc != 3 {
		t.Fatalf("TotalFunc = %d after shard recreation, want 3", got.TotalFunc)
	}
}
