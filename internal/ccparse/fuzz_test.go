package ccparse_test

import (
	"reflect"
	"testing"

	"repro/internal/apollocorpus"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/srcfile"
)

// FuzzParse feeds arbitrary source through the error-tolerant parser as
// C, C++, and CUDA, asserting the contract the pipeline relies on: a
// non-nil translation unit whatever the input (bad regions become
// BadDecls), no panics, and an AST that the shared Walk can traverse.
func FuzzParse(f *testing.F) {
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
			file := &srcfile.File{Path: p, Src: src}
			file.Lang = srcfile.LanguageForPath(p)
			tu, errs := ccparse.Parse(file, ccparse.Options{})
			if tu == nil {
				t.Fatalf("%s: nil translation unit (the pipeline requires error tolerance)", p)
			}
			// The arena fast path must agree with the reference heap path
			// on arbitrary (including malformed) input, not just on the
			// corpora the parity tests cover: same rendered AST, same
			// error list.
			refTU, refErrs := ccparse.Parse(file, ccparse.Options{Reference: true})
			if ref, fast := dumpTU(refTU), dumpTU(tu); ref != fast {
				t.Fatalf("%s: arena AST diverges from reference\n%s", p, firstDiff(ref, fast))
			}
			if r, g := errStrings(refErrs), errStrings(errs); !reflect.DeepEqual(r, g) {
				t.Fatalf("%s: arena errors %v, reference %v", p, g, r)
			}
			// The AST must be walkable and positioned: every span the
			// checkers anchor findings to needs a valid line.
			ccast.Walk(tu, func(n ccast.Node) bool {
				if sp := n.Span(); sp.Start.Line < 0 || sp.Start.Col < 0 {
					t.Fatalf("%s: node %T at negative position %v", p, n, sp.Start)
				}
				return true
			})
			for _, fn := range tu.Funcs() {
				ccast.CountReturns(fn)
			}
		}
	})
}
