package core

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccparse"
	"repro/internal/corpusgen"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// FuzzColdLoad pins the cold load's per-file step, and the arena reset
// between its files, against references that parse every file into an
// arena of its own batch and keep every AST: a small generated tree,
// its shape and seed drawn by the fuzzer, plus up to four fuzzed file
// bodies (body split at NUL bytes), loaded with LoadFileSet, must give
// the findings rules.RunSequential gives over a fresh ParseAll, and the
// metrics and arch rows metrics.AnalyzeIndexed and AnalyzeArchIndexed
// give over artifact.Build. The files are loaded largest first, so a
// worker's arena reuses chunks a larger file filled, and a node the
// reset failed to zero shows up as a stale field of a smaller file.
func FuzzColdLoad(f *testing.F) {
	f.Add(int64(26262), uint8(3), uint8(3), uint8(2), []byte("int f(int x) { if (x) { return g(x); } return 0; }\x00void g(void);\n"))
	f.Add(int64(7), uint8(2), uint8(5), uint8(4), []byte("int g_v;\nint h(void) { int g_v = 1; return g_v; }\n"))
	f.Add(int64(31), uint8(4), uint8(1), uint8(1), []byte("__global__ void k(float *p) { p[0] = 1.0f; }\x00int r(int n) { return n ? r(n - 1) : 0; }\x00int;"))
	f.Fuzz(func(t *testing.T, seed int64, mods, files, funcs uint8, body []byte) {
		g := corpusgen.New(corpusgen.Params{Modules: int(mods%4) + 1, FilesPerModule: int(files%5) + 1,
			FuncsPerFile: int(funcs%5) + 1, ViolationsPerFile: 2, CUDAFiles: int(files % 2), CrossFile: seed%2 == 0}, seed)
		srcs := make(map[string]string)
		for _, p := range g.Paths() {
			srcs[p] = g.Source(p)
		}
		for i, part := range strings.SplitN(string(body), "\x00", 4) {
			ext := ".c"
			if i%2 == 1 {
				ext = ".cu"
			}
			srcs[fmt.Sprintf("fz/fuzz%d%s", i, ext)] = part
		}
		paths := make([]string, 0, len(srcs))
		for p := range srcs {
			paths = append(paths, p)
		}
		slices.SortFunc(paths, func(a, b string) int {
			return cmp.Or(cmp.Compare(len(srcs[b]), len(srcs[a])), cmp.Compare(a, b))
		})
		fs := srcfile.NewFileSet()
		for _, p := range paths {
			fs.AddSource(p, srcs[p])
		}

		a := NewAssessor(DefaultConfig())
		if err := a.LoadFileSet(fs); err != nil {
			t.Fatal(err)
		}
		units, _ := ccparse.ParseAll(fs, ccparse.Options{})
		ix := artifact.Build(units)
		want := rules.RunSequential(rules.NewContextFromIndex(ix), rules.DefaultRules())
		if got := a.Findings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cold-loaded findings differ from the sequential reference:\n%s", findingsDiff(got, want))
		}
		wm, gm := metrics.AnalyzeIndexed(ix), a.Metrics()
		if gm.TotalFiles != wm.TotalFiles || gm.TotalLOC != wm.TotalLOC || gm.TotalNLOC != wm.TotalNLOC ||
			gm.TotalFunc != wm.TotalFunc || gm.ModerateOrWorse != wm.ModerateOrWorse ||
			!reflect.DeepEqual(gm.Modules, wm.Modules) || !reflect.DeepEqual(gm.Files(), wm.Files()) {
			t.Fatal("cold-loaded metrics differ from AnalyzeIndexed over artifact.Build")
		}
		if !reflect.DeepEqual(a.Arch(), metrics.AnalyzeArchIndexed(ix)) {
			t.Fatal("cold-loaded arch rows differ from AnalyzeArchIndexed over artifact.Build")
		}
	})
}

// findingsDiff renders the first finding at which two streams differ.
func findingsDiff(got, want []rules.Finding) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("at %d: got %s, want %s", i, got[i].String(), want[i].String())
		}
	}
	return fmt.Sprintf("got %d findings, want %d", len(got), len(want))
}
