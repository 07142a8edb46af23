package artifact_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/apollocorpus"
	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/srcfile"
)

// FuzzRehydrate fuzzes the stub round trip every warm assessor runs: a
// one-file index is built from a parse, its unit demoted to a stub, and
// the unchanged source re-parsed and rehydrated. Demotion must leave
// every record with its facts and no declaration; hydration must keep
// every record, point each at its re-parsed function, and find the facts
// a fresh analysis of that function derives — so a re-parse that
// disagrees with stored facts shows here rather than in a server. Seeds
// and languages follow FuzzParse.
func FuzzRehydrate(f *testing.F) {
	f.Add("int main() { return 0; }\n")
	f.Add("float f(const float* p, int n) { if (p != 0) { return p[0]; } return 0.0f; }\n")
	f.Add("union U { int a; float b; }; struct S { int x; };\n")
	f.Add("int g(int x) { switch (x) { case 0: return 1; default: break; } goto l;\nl:\n  return 0; }\n")
	f.Add("__global__ void k(float *o) { o[threadIdx.x] = 0.0f; }\nvoid h(float *o) { k<<<1, 2>>>(o); }\n")
	f.Add("namespace a { namespace b { int c; } }\n")
	f.Add("int bad( { ; } )))) struct\n")
	f.Add("for while if else ( ( { [ <<< \"str\n")
	f.Add("typedef unsigned long long u64; u64 v = 077;\n")
	f.Add(apollocorpus.ScaleBiasSample().Src)
	for _, fl := range apollocorpus.YoloCorpus().Files() {
		f.Add(fl.Src)
	}
	gen := apollocorpus.GenerateDefault().Files()
	for i := 0; i < len(gen) && i < 3; i++ {
		f.Add(gen[i].Src)
	}

	paths := []string{"fuzz.c", "fuzz.cc", "fuzz.cu"}
	f.Fuzz(func(t *testing.T, src string) {
		for _, p := range paths {
			file := &srcfile.File{Path: p, Lang: srcfile.LanguageForPath(p), Src: src}
			tu, _ := ccparse.Parse(file, ccparse.Options{})
			ix := artifact.Build(map[string]*ccast.TranslationUnit{p: tu})
			facts := ix.UnitFacts(p)
			recs := slices.Clone(ix.UnitFuncs(p))

			ix.Demote([]string{p})
			if got := ix.UnitFacts(p); !reflect.DeepEqual(got, facts) {
				t.Fatalf("%s: Demote moved the facts:\ngot  %+v\nwant %+v", p, got, facts)
			}
			for i, fa := range ix.UnitFuncs(p) {
				if fa != recs[i] || fa.Decl != nil {
					t.Fatalf("%s: record %d after Demote: same record %v, declaration %v", p, i, fa == recs[i], fa.Decl != nil)
				}
			}

			re, _ := ccparse.Parse(file, ccparse.Options{})
			ix.Rehydrate(re)
			if ix.Units[p] != re {
				t.Fatalf("%s: Rehydrate did not install the re-parse", p)
			}
			fns := re.Funcs()
			got := ix.UnitFuncs(p)
			if len(got) != len(recs) {
				t.Fatalf("%s: %d records after Rehydrate, %d before", p, len(got), len(recs))
			}
			for i, fa := range got {
				if fa != recs[i] || fa.Decl != fns[i] {
					t.Fatalf("%s: record %d after Rehydrate: same record %v, re-parsed declaration %v", p, i, fa == recs[i], fa.Decl == fns[i])
				}
				if want := artifact.Analyze(fns[i], file, fa.Module).FuncFacts; !reflect.DeepEqual(fa.FuncFacts, want) {
					t.Fatalf("%s: %s: stored facts %+v, re-parse analyzes to %+v", p, fa.Name, fa.FuncFacts, want)
				}
			}
		}
	})
}
