package metrics_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/metrics"
	"repro/internal/srcfile"
)

// requireSameArch compares cached arch rows against the cache-free
// reference by value.
func requireSameArch(t *testing.T, stage string, got, want []*metrics.ArchMetrics) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: row counts differ: %d vs %d", stage, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(*got[i], *want[i]) {
			t.Fatalf("%s: module %s differs:\n  got  %+v\n  want %+v",
				stage, want[i].Module, *got[i], *want[i])
		}
	}
}

// TestArchCacheMatchesAnalyzeArchIndexed drives the shard-aware arch
// cache through edits that move calls across modules and change the
// function→module table, asserting equality with the cache-free pass at
// every step.
func TestArchCacheMatchesAnalyzeArchIndexed(t *testing.T) {
	ix := parseSet(t, map[string]string{
		"m/a.c": "int fa(int x) { return fb(x) + fc(x); }\n",
		"m/b.c": "int fb(int x) { pthread_mutex_lock(0); return x; }\n",
		"n/c.c": "int fc(int x) { signal(0, 0); return fa(x); }\n",
		"o/d.c": "int fd(int a, int b, int c) { return fa(a) + b + c; }\n",
	})
	c := metrics.NewArchCache()

	requireSameArch(t, "cold", c.AnalyzeIndexed(ix), metrics.AnalyzeArchIndexed(ix))
	requireSameArch(t, "no-op", c.AnalyzeIndexed(ix), metrics.AnalyzeArchIndexed(ix))

	// Body edit that redirects a call: o now calls into n instead of m.
	reparse(t, ix, "o/d.c", "int fd(int a, int b, int c) { return fc(a) + b + c; }\n")
	requireSameArch(t, "redirect", c.AnalyzeIndexed(ix), metrics.AnalyzeArchIndexed(ix))

	// Moving a definition between modules changes the function→module
	// table: every shard's resolution is re-derived.
	reparse(t, ix, "n/c.c", "int fe(int x) { return x; }\n")
	reparse(t, ix, "m/b.c", "int fb(int x) { return x; }\nint fc(int x) { return x + 1; }\n")
	requireSameArch(t, "move", c.AnalyzeIndexed(ix), metrics.AnalyzeArchIndexed(ix))

	// Removal.
	applyUnits(ix, nil, []string{"o/d.c"})
	requireSameArch(t, "remove", c.AnalyzeIndexed(ix), metrics.AnalyzeArchIndexed(ix))

	// A module move hidden behind more change-feed entries than the feed
	// retains: the cache must notice it fell behind and re-resolve.
	reparse(t, ix, "n/c.c", "int fe(int x) { return x; }\nint fc(int x) { return fa(x); }\n")
	var flood strings.Builder
	for i := 0; i <= artifact.FeedRetention; i++ {
		fmt.Fprintf(&flood, "int g_flood_%d;\n", i)
	}
	reparse(t, ix, "p/flood.c", flood.String())
	requireSameArch(t, "feed overrun", c.AnalyzeIndexed(ix), metrics.AnalyzeArchIndexed(ix))

	// The content counters and resolved calls move by each changed
	// file's difference. m/wide.c holds module m's MaxInterfaceParams;
	// n/c.c holds shard n's only call into m, so dropping it must delete
	// the target (FanOut and FanIn count targets).
	steps := []struct {
		name    string
		applies []map[string]string
	}{
		{"add the widest interface", []map[string]string{{"m/wide.c": "int fw(int a, int b, int c, int d) { return fb(a) + b + c + d; }\n"}}},
		{"narrow it", []map[string]string{{"m/wide.c": "int fw(int a) { return a; }\n"}}},
		{"widen then remove it before one update", []map[string]string{
			{"m/wide.c": "int fw(int a, int b, int c, int d, int e) { return a + b + c + d + e; }\n"},
			{"m/wide.c": ""},
		}},
		{"last call into a module", []map[string]string{{"n/c.c": "int fe(int x) { return x; }\nint fc(int x) { return x; }\n"}}},
		// Shard p did not call fe before, so its new calls are resolved
		// by difference, against fe's new module.
		{"call a name whose module moves in the same window", []map[string]string{
			{"p/caller.c": "int fp(int x) { return fe(x) + fe(x); }\n"},
			{"n/c.c": "int fc(int x) { return x; }\n", "m/fe.c": "int fe(int x) { return x; }\n"},
		}},
		{"two applies to one file", []map[string]string{
			{"p/caller.c": "int fp(int x) { pthread_mutex_lock(0); return fa(x); }\n"},
			{"p/caller.c": "int fp(int x) { signal(0, 0); return fb(x) + fc(x); }\n"},
		}},
		// Module s vanishes while fx moves to the new module t, so the
		// module count holds; when s comes back calling fx, its calls
		// must resolve to t, not to where fx was when s last counted.
		{"add a caller module and its callee", []map[string]string{{
			"s/a.c": "int fs(int x) { return fx(x); }\n",
			"m/x.c": "int fx(int x) { return x; }\n",
		}}},
		{"empty the caller module while its callee moves to a new one", []map[string]string{{
			"s/a.c": "", "m/x.c": "", "t/x.c": "int fx(int x) { return x; }\n",
		}}},
		{"bring the caller module back", []map[string]string{{"s/a.c": "int fs(int x) { return fx(x); }\n"}}},
	}
	for _, st := range steps {
		for _, files := range st.applies {
			applyMetricFiles(t, ix, files)
		}
		requireSameArch(t, st.name, c.AnalyzeIndexed(ix), metrics.AnalyzeArchIndexed(ix))
	}
}

// reparse parses one edited file and swaps it into the index.
func reparse(t *testing.T, ix *artifact.Index, path, src string) {
	t.Helper()
	f := &srcfile.File{Path: path, Lang: srcfile.LanguageForPath(path), Src: src}
	tu, errs := ccparse.Parse(f, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse %s: %v", path, errs[0])
	}
	applyUnits(ix, []*ccast.TranslationUnit{tu}, nil)
}
