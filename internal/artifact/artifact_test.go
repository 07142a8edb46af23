package artifact_test

import (
	"runtime"
	"testing"

	"repro/internal/apollocorpus"
	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/metrics"
)

func buildIndex(t *testing.T) *artifact.Index {
	t.Helper()
	// Spawn real worker goroutines even on single-core runners so the
	// -race gate covers the parallel build.
	if prev := runtime.GOMAXPROCS(0); prev < 4 {
		runtime.GOMAXPROCS(4)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	fs := apollocorpus.GenerateDefault()
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	return artifact.Build(units)
}

// TestIndexMatchesReferenceTraversals pins the single-pass collector to
// the reference implementations it replaces: metrics.Cyclomatic for CCN,
// ccast.CountReturns for exits, and a dedicated call walk for the callee
// inventory.
func TestIndexMatchesReferenceTraversals(t *testing.T) {
	ix := buildIndex(t)
	fas := allFuncs(ix)
	if len(fas) == 0 {
		t.Fatal("index has no functions")
	}
	for _, fa := range fas {
		if want := metrics.Cyclomatic(fa.Decl); fa.CCN != want {
			t.Fatalf("%s: CCN %d, reference %d", fa.Decl.Name, fa.CCN, want)
		}
		if want := ccast.CountReturns(fa.Decl); fa.Returns != want {
			t.Fatalf("%s: returns %d, reference %d", fa.Decl.Name, fa.Returns, want)
		}
		var calls []string
		ccast.WalkExprs(fa.Decl.Body, func(e ccast.Expr) bool {
			if c, ok := e.(*ccast.Call); ok {
				if n := artifact.CalleeName(c); n != "" {
					calls = append(calls, n)
				}
			}
			return true
		})
		if len(calls) != len(fa.Calls) {
			t.Fatalf("%s: %d calls cached, reference %d", fa.Decl.Name, len(fa.Calls), len(calls))
		}
		for i := range calls {
			if calls[i] != fa.Calls[i] {
				t.Fatalf("%s: call %d is %q, reference %q", fa.Decl.Name, i, fa.Calls[i], calls[i])
			}
		}
	}
}

// TestBuildDeterministic checks that the parallel build produces the same
// index shape regardless of scheduling.
func TestBuildDeterministic(t *testing.T) {
	a, b := buildIndex(t), buildIndex(t)
	af, bf := allFuncs(a), allFuncs(b)
	if len(af) != len(bf) || len(a.Paths) != len(b.Paths) {
		t.Fatalf("index sizes differ: %d/%d funcs, %d/%d paths",
			len(af), len(bf), len(a.Paths), len(b.Paths))
	}
	for i := range af {
		if af[i].Decl.Name != bf[i].Decl.Name {
			t.Fatalf("func %d ordering differs: %q vs %q", i, af[i].Decl.Name, bf[i].Decl.Name)
		}
	}
	if len(a.ByName) != len(b.ByName) || len(a.GlobalNames) != len(b.GlobalNames) {
		t.Fatal("cross-file index sizes differ")
	}
	for name, fa := range a.ByName {
		if fb := b.ByName[name]; fb == nil || fb.Decl.Name != fa.Decl.Name || fb.File.Path != fa.File.Path {
			t.Fatalf("ByName[%q] differs between builds", name)
		}
	}
}

// TestCFGMemoized checks the lazy CFG is built once and shared.
func TestCFGMemoized(t *testing.T) {
	ix := buildIndex(t)
	fa := allFuncs(ix)[0]
	g1, g2 := fa.CFG(), fa.CFG()
	if g1 == nil || g1 != g2 {
		t.Fatal("CFG not memoized")
	}
	if g1.Fn != fa.Decl {
		t.Fatal("CFG built for wrong function")
	}
}
