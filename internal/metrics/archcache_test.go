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
	ix.Apply(nil, []string{"o/d.c"})
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
}

// reparse parses one edited file and swaps it into the index.
func reparse(t *testing.T, ix *artifact.Index, path, src string) {
	t.Helper()
	f := &srcfile.File{Path: path, Lang: srcfile.LanguageForPath(path), Src: src}
	tu, errs := ccparse.Parse(f, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse %s: %v", path, errs[0])
	}
	ix.Apply([]*ccast.TranslationUnit{tu}, nil)
}
