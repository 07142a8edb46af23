package rules_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// condCorpus is the state FuzzConditionedFindings draws deltas over: a
// small multi-shard corpus whose readers call every library function
// as a statement and declare locals under every global's name, so each
// library or global change flips conditioned findings in other shards.
type condCorpus struct {
	void, renamed [4]bool // per library function f<i>
	global        [3]bool // per global g<j>
	solo          bool    // d/solo.c, alone in its shard, exists
	body          [3]int  // per reader, its body variant
}

// libName is library function i's current name.
func (c *condCorpus) libName(i int) string {
	if c.renamed[i] {
		return fmt.Sprintf("f%dr", i)
	}
	return fmt.Sprintf("f%d", i)
}

// sources renders the corpus, one source per path.
func (c *condCorpus) sources() map[string]string {
	lib := func(lo, hi int) string {
		var sb strings.Builder
		for i := lo; i < hi; i++ {
			if c.void[i] {
				fmt.Fprintf(&sb, "void %s(int x) { (void)x; }\n", c.libName(i))
			} else {
				fmt.Fprintf(&sb, "int %s(int x) { if (x > %d) { return 1; } return 0; }\n", c.libName(i), i)
			}
		}
		return sb.String()
	}
	var globs strings.Builder
	for j, on := range c.global {
		if on {
			fmt.Fprintf(&globs, "int g%d;\n", j)
		}
	}
	out := map[string]string{
		"a/lib.c":  lib(0, 2),
		"b/lib.c":  lib(2, 4),
		"c/glob.c": globs.String() + "int keep(int v) { return v; }\n",
	}
	for r, mod := range []string{"a", "b", "c"} {
		var sb strings.Builder
		fmt.Fprintf(&sb, "void read_%s(int k) {\n", mod)
		for v := 0; v < c.body[r]; v++ {
			sb.WriteString("  k = k + 1;\n") // shifts every later line
		}
		sb.WriteString("  f0(k); f1(k);\n  f2(k);\n  f3(k); f0r(k); f1r(k); f2r(k); f3r(k);\n")
		sb.WriteString("  int g0 = k;\n  {\n    int g1 = g0;\n    int g0 = g1;\n  }\n")
		if c.body[r]%2 == 1 {
			sb.WriteString("  while (k > 0) { f1(k); k--; }\n")
		}
		sb.WriteString("}\nint g2_user(int g2) { int g2x = g2; return g2x; }\n")
		fmt.Fprintf(&sb, "void loop_%s(int n) { int g2 = n; if (g2 > 0) { loop_%s(g2 - 1); } }\n", mod, mod)
		out[mod+"/read.c"] = sb.String()
	}
	if c.solo {
		out["d/solo.c"] = "int g2;\nint f3(int x) { return x; }\n"
	}
	return out
}

// condIndex parses srcs into a fresh index.
func condIndex(t *testing.T, srcs map[string]string) *artifact.Index {
	t.Helper()
	fs := srcfile.NewFileSet()
	for _, p := range sortedKeys(srcs) {
		fs.AddSource(p, srcs[p])
	}
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	return artifact.Build(units)
}

// FuzzConditionedFindings drives the sharded engine through deltas over
// condCorpus, drawn from the input: void flips, global adds and
// removes, renames, body edits, a shard's file added and removed, and
// RestoreCache round trips, some applied back to back before one run.
// After each run the engine's Findings and Stats must equal
// RunSequential's over a fresh parse of the same sources. Each run
// hands the engine the walks of the files the deltas since changed and
// no other (Refresh), and the engine fails closed without a file's
// walk, so an engine that needed to walk an unchanged file again fails
// the target.
func FuzzConditionedFindings(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 4, 0, 1, 2, 3, 1, 5, 0})
	f.Add([]byte{1, 0, 0, 3, 2, 2, 1, 1, 4, 0, 6, 0, 2, 1})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 3, 2, 4, 0, 0, 3, 1, 3})
	f.Add([]byte{5, 0, 7, 0, 0, 2, 4, 1, 1, 2, 2, 0, 5, 0})
	f.Add([]byte{0, 1, 2, 0, 4, 0, 0, 1, 0, 39, 204, 14, 255, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var c condCorpus
		srcs := c.sources()
		ix := condIndex(t, srcs)
		eng := rules.NewSharded(rules.DefaultRules())
		check := func(step int) {
			t.Helper()
			warm := rules.Refresh(eng, ix)
			want := rules.RunSequential(rules.NewContextFromIndex(condIndex(t, srcs)), rules.DefaultRules())
			if got, want := renderFindings(warm), renderFindings(want); !bytes.Equal(got, want) {
				t.Fatalf("step %d: engine differs from the reference\n%s", step, firstDiff(want, got))
			}
			if !reflect.DeepEqual(eng.Stats(), rules.Aggregate(warm)) {
				t.Fatalf("step %d: stats differ from a flat Aggregate", step)
			}
		}
		check(-1)
		for k := 0; k+1 < len(ops) && k < 64; k += 2 {
			op, arg := ops[k], int(ops[k+1])
			switch op % 7 {
			case 0:
				c.void[arg%4] = !c.void[arg%4]
			case 1:
				c.renamed[arg%4] = !c.renamed[arg%4]
			case 2:
				c.global[arg%3] = !c.global[arg%3]
			case 3:
				c.body[arg%3] = (c.body[arg%3] + 1 + arg/3) % 4
			case 4:
				c.solo = !c.solo
			case 5:
				// A snapshot holds an engine brought up to date, as
				// core.Assessor.ExportState does.
				check(k)
				eng = restoredEngine(t, eng, ix)
				check(k)
				continue
			case 6:
				c.void[arg%4], c.global[arg%3] = !c.void[arg%4], !c.global[arg%3]
			}
			next := c.sources()
			var upserts []*ccast.TranslationUnit
			var removals []string
			for _, p := range sortedKeys(srcs) {
				if _, ok := next[p]; !ok {
					removals = append(removals, p)
				}
			}
			for _, p := range sortedKeys(next) {
				if next[p] == srcs[p] {
					continue
				}
				tu, errs := ccparse.Parse(&srcfile.File{Path: p, Lang: srcfile.LanguageForPath(p), Src: next[p]}, ccparse.Options{})
				if len(errs) > 0 {
					t.Fatalf("parse %s: %v", p, errs[0])
				}
				upserts = append(upserts, tu)
			}
			applyUnits(ix, upserts, removals)
			srcs = next
			if op&0x80 == 0 { // a set high bit applies the next delta before a run
				check(k)
			}
		}
		check(len(ops))
	})
}
