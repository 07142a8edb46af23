package rules_test

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/apollocorpus"
	"repro/internal/artifact"
	"repro/internal/ccast"
	"repro/internal/ccparse"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// reparse parses one edited file and swaps it into the index, mirroring
// what core.Assessor.ApplyDelta does.
func reparse(t *testing.T, ix *artifact.Index, path, src string) {
	t.Helper()
	f := &srcfile.File{Path: path, Lang: srcfile.LanguageForPath(path), Src: src}
	tu, errs := ccparse.Parse(f, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse %s: %v", path, errs[0])
	}
	ix.Apply([]*ccast.TranslationUnit{tu}, nil)
}

// shardedCheck runs the sharded engine against the sequential reference
// engine over a fresh context and asserts byte-identical output,
// matching stats, and (when wantDirty >= 0) the expected number of
// re-checked files.
func shardedCheck(t *testing.T, stage string, eng *rules.Sharded, ix *artifact.Index, wantDirty int) {
	t.Helper()
	ctx := rules.NewContextFromIndex(ix)
	warm := eng.Run(ctx)
	cold := rules.RunSequential(ctx, rules.DefaultRules())
	if got, want := renderFindings(warm), renderFindings(cold); !bytes.Equal(got, want) {
		t.Fatalf("%s: sharded output differs from sequential reference\n%s", stage, firstDiff(want, got))
	}
	if wantDirty >= 0 && eng.LastDirty() != wantDirty {
		t.Fatalf("%s: re-checked %d files, want %d", stage, eng.LastDirty(), wantDirty)
	}
	if !reflect.DeepEqual(eng.Stats(), rules.Aggregate(warm)) {
		t.Fatalf("%s: folded stats differ from flat Aggregate", stage)
	}
}

// TestShardedMatchesColdRun drives the sharded engine through deltas
// over the default corpus, asserting byte-identical output and exact
// dirty-file accounting at every step.
func TestShardedMatchesColdRun(t *testing.T) {
	forceParallel(t)
	fs := apollocorpus.GenerateDefault()
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("corpus parse errors: %v", errs[0])
	}
	ix := artifact.Build(units)
	eng := rules.NewSharded(rules.DefaultRules())

	shardedCheck(t, "cold", eng, ix, len(ix.Paths))
	shardedCheck(t, "no-op rerun", eng, ix, 0)

	// Adding a non-void function moves the callee voidness of a name no
	// other file spells: only the edited file is re-checked.
	victim := ix.Paths[len(ix.Paths)/2]
	reparse(t, ix, victim, ix.Units[victim].File.Src+
		"\nint sharded_probe(int x) { if (x > 2) { return 1; } return 0; }\n")
	shardedCheck(t, "new-function edit", eng, ix, 1)

	// Removing the file undefines its functions, but no remaining file
	// spells their names, so nothing is re-checked.
	ix.Apply(nil, []string{victim})
	shardedCheck(t, "removal", eng, ix, 0)
	shardedCheck(t, "post-removal rerun", eng, ix, 0)
}

// del marks a removal in a shardedStep's file map.
const del = "\x00removed"

// shardedStep is one round of TestShardedNameDependencies: one Apply per
// map (path → new source, or del), then one Run that must match a cold
// run and re-check exactly dirty files.
type shardedStep struct {
	name    string
	applies []map[string]string
	dirty   int
}

// applyFiles parses the upserts of one step map and applies them, with
// its removals, as one Index.Apply.
func applyFiles(t *testing.T, ix *artifact.Index, files map[string]string) {
	t.Helper()
	var upserts []*ccast.TranslationUnit
	var removals []string
	for _, p := range sortedKeys(files) {
		if files[p] == del {
			removals = append(removals, p)
			continue
		}
		f := &srcfile.File{Path: p, Lang: srcfile.LanguageForPath(p), Src: files[p]}
		tu, errs := ccparse.Parse(f, ccparse.Options{})
		if len(errs) > 0 {
			t.Fatalf("parse %s: %v", p, errs[0])
		}
		upserts = append(upserts, tu)
	}
	ix.Apply(upserts, removals)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// manyGlobals returns a file declaring n distinct globals: one Apply that
// adds it records n feed entries.
func manyGlobals(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "int g_flood_%d;\n", i)
	}
	return sb.String()
}

// manyVoids returns a file defining n distinct void functions: one Apply
// that adds it records n feed entries, none of them a per-file fact.
func manyVoids(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "void v_flood_%d(void) { }\n", i)
	}
	return sb.String()
}

// bodyEdits returns n single-file Applies that each give path a new body
// and keep its name, voidness and callees.
func bodyEdits(path string, n int) []map[string]string {
	out := make([]map[string]string, n)
	for i := range out {
		out[i] = map[string]string{path: fmt.Sprintf("int quiet(int k) { return k + %d; }\n", i)}
	}
	return out
}

// TestShardedNameDependencies pins the name-level invalidation contract:
// after a delta, the warm engine re-checks exactly the content-changed
// files plus the files spelling a name whose callee voidness or global
// membership moved, and its output stays byte-identical to a cold run.
func TestShardedNameDependencies(t *testing.T) {
	forceParallel(t)
	base := map[string]string{
		"m/lib.c":       "int helper(int x) { return x + 1; }\nint g_seen;\n",
		"n/caller.c":    "void caller(void) { helper(4); }\n",
		"o/shadow.c":    "int sh(int v) { int g_probe = v; return g_probe; }\n",
		"p/note.c":      "// helper is documented here only\nint note(void) { return 0; }\n",
		"q/late.c":      "int dup(int x) { return x; }\n",
		"r/user.c":      "void user(void) { dup(1); }\n",
		"s/ping.c":      "int ping(int n) { return pong(n); }\n",
		"t/unrelated.c": "int quiet(int k) { if (k > 1) { return 1; } return 0; }\n",
	}
	cases := []struct {
		name  string
		steps []shardedStep
	}{
		// 3 re-checked files: m/lib.c (edited), n/caller.c (calls helper),
		// and p/note.c, which spells helper only in a comment — re-checked
		// conservatively, with output still identical.
		{"callee voidness flip", []shardedStep{
			{"to void", []map[string]string{{"m/lib.c": "void helper(int x) { (void)x; }\nint g_seen;\n"}}, 3},
			{"back to int", []map[string]string{{"m/lib.c": base["m/lib.c"]}}, 3},
		}},
		{"callee rename", []shardedStep{
			{"rename", []map[string]string{{"m/lib.c": "int helper2(int x) { return x + 1; }\nint g_seen;\n"}}, 3},
			{"rename back", []map[string]string{{"m/lib.c": base["m/lib.c"]}}, 3},
		}},
		{"remove then re-add", []shardedStep{
			{"remove", []map[string]string{{"m/lib.c": del}}, 2},
			{"re-add", []map[string]string{{"m/lib.c": base["m/lib.c"]}}, 3},
		}},
		{"earlier-path duplicate flips the champion", []shardedStep{
			{"add void dup first in path order", []map[string]string{{"a/early.c": "void dup(int x) { (void)x; }\n"}}, 3},
			{"remove it", []map[string]string{{"a/early.c": del}}, 2},
		}},
		{"shadowed global added and removed", []shardedStep{
			{"add global", []map[string]string{{"g/glob.c": "int g_probe = 0;\n"}}, 2},
			{"remove global", []map[string]string{{"g/glob.c": del}}, 1},
		}},
		{"cross-file cycle made and broken", []shardedStep{
			{"make", []map[string]string{{"u/pong.c": "int pong(int n) { return ping(n); }\n"}}, 2},
			// A body edit moves a member's line, not the graph: its finding
			// is re-rendered without an SCC.
			{"move a member's line", []map[string]string{{"s/ping.c": "\n" + base["s/ping.c"]}}, 1},
			{"break by callee change", []map[string]string{{"u/pong.c": "int pong(int n) { return n; }\n"}}, 1},
			{"remake", []map[string]string{{"u/pong.c": "int pong(int n) { return ping(n); }\n"}}, 1},
			{"break by removal", []map[string]string{{"u/pong.c": del}}, 1},
		}},
		{"two applies between one pair of runs", []shardedStep{
			{"flip and add global", []map[string]string{
				{"m/lib.c": "void helper(int x) { (void)x; }\nint g_seen;\n"},
				{"g/glob.c": "int g_probe = 0;\n"},
			}, 5},
			{"flip back and body edit", []map[string]string{
				{"m/lib.c": base["m/lib.c"]},
				{"t/unrelated.c": "int quiet(int k) { return k; }\n"},
			}, 4},
		}},
		{"more names than the scan takes", []shardedStep{
			// Past the scan bound every file is re-checked.
			{"full add", []map[string]string{{"g/many.c": manyGlobals(200) + "int g_probe;\n"}}, 9},
			{"full remove", []map[string]string{{"g/many.c": del}}, 8},
			{"body edit after", []map[string]string{{"t/unrelated.c": "int quiet(int k) { return k; }\n"}}, 1},
		}},
		{"one apply larger than the feed bound", []shardedStep{
			// The newest generation is never dropped: a run one Apply
			// behind still reads all of it. Void definitions move only
			// graph facts, so the one shadowed global is the only name
			// scanned for.
			{"flood", []map[string]string{{"z/flood.c": manyVoids(artifact.FeedRetention+1) + "int g_probe;\n"}}, 2},
		}},
		{"feed overrun", []shardedStep{
			// The body edit's Apply drops the flood generation, which the
			// engine had not read, shadowed global included.
			{"full flood then body edit", []map[string]string{
				{"z/flood.c": manyVoids(artifact.FeedRetention+1) + "int g_probe;\n"},
				{"t/unrelated.c": "int quiet(int k) { return k; }\n"},
			}, 9},
			{"body edit after overrun", []map[string]string{{"t/unrelated.c": base["t/unrelated.c"]}}, 1},
		}},
		{"body edits past the feed bound", []shardedStep{
			// Body edits record nothing, so no number of them overruns.
			{"edits", bodyEdits("t/unrelated.c", artifact.FeedRetention+1), 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := srcfile.NewFileSet()
			for _, p := range sortedKeys(base) {
				fs.AddSource(p, base[p])
			}
			units, errs := ccparse.ParseAll(fs, ccparse.Options{})
			if len(errs) > 0 {
				t.Fatalf("parse: %v", errs[0])
			}
			ix := artifact.Build(units)
			eng := rules.NewSharded(rules.DefaultRules())
			shardedCheck(t, "cold", eng, ix, len(base))
			for _, st := range tc.steps {
				for _, files := range st.applies {
					applyFiles(t, ix, files)
				}
				shardedCheck(t, st.name, eng, ix, st.dirty)
				if full := eng.LastFullRecheck(); full != strings.HasPrefix(st.name, "full") {
					t.Fatalf("%s: LastFullRecheck = %v", st.name, full)
				}
				shardedCheck(t, st.name+" rerun", eng, ix, 0)
			}
		})
	}
}

// TestShardedBodyEditChecksOneFile pins the O(dirty shard) fast path: a
// body edit that keeps every exported fact intact re-checks exactly the
// dirty file, leaves the other shards' segments untouched, and still
// merges byte-identically.
func TestShardedBodyEditChecksOneFile(t *testing.T) {
	forceParallel(t)
	srcs := map[string]string{
		"m/a.c": "int ga;\nint fa(int x) { int y; return y + x; }\n",
		"m/b.c": "int fb(int x) { if (x > 0) { return 1; } return 0; }\n",
		"n/c.c": "void fc(void) { fb(3); }\n",
		"n/d.c": "int fd(int k) { int ga; return ga + k; }\n",
	}
	fs := srcfile.NewFileSet()
	for p, src := range srcs {
		fs.AddSource(p, src)
	}
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	ix := artifact.Build(units)
	eng := rules.NewSharded(rules.DefaultRules())

	shardedCheck(t, "cold", eng, ix, 4)
	shardedCheck(t, "no-op", eng, ix, 0)

	// Same signature (fb stays int(int)), same globals — new body with
	// different findings (a goto and a multi-exit structure).
	reparse(t, ix, "m/b.c",
		"int fb(int x) {\n  if (x > 1) { goto out; }\n  return 0;\nout:\n  return 1;\n}\n")
	shardedCheck(t, "body edit", eng, ix, 1)
	shardedCheck(t, "body edit no-op", eng, ix, 0)

	// A body edit introducing recursion changes the call-graph view:
	// the corpus segment must refresh even though exports are stable.
	reparse(t, ix, "n/c.c", "void fc(void) { fb(3); fc(); }\n")
	shardedCheck(t, "recursion edit", eng, ix, 1)
	found := false
	ctx := rules.NewContextFromIndex(ix)
	for _, f := range eng.Run(ctx) {
		if f.RuleID == "recursion" && f.Function == "fc" {
			found = true
		}
	}
	if !found {
		t.Fatal("recursion introduced by a body edit was not reported")
	}
}

// TestShardedCrossModuleEnv pins cross-shard environment invalidation:
// an edit in one module that changes a fact another module's cached
// findings depend on (callee voidness for the ignored-return check)
// must invalidate and re-report correctly.
func TestShardedCrossModuleEnv(t *testing.T) {
	srcs := map[string]string{
		"m/a.c": "int helper(int x) { return x + 1; }\n",
		"n/b.c": "void caller(void) { helper(4); }\n",
	}
	fs := srcfile.NewFileSet()
	for p, src := range srcs {
		fs.AddSource(p, src)
	}
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	ix := artifact.Build(units)
	eng := rules.NewSharded(rules.DefaultRules())
	shardedCheck(t, "cold", eng, ix, 2)

	hasIgnored := func() bool {
		for _, f := range eng.Run(rules.NewContextFromIndex(ix)) {
			if f.RuleID == "defensive" && f.File == "n/b.c" {
				return true
			}
		}
		return false
	}
	if !hasIgnored() {
		t.Fatal("ignored-return finding missing before the edit")
	}
	// helper becomes void: n/b.c's cached finding is stale and must go.
	reparse(t, ix, "m/a.c", "void helper(int x) { (void)x; }\n")
	shardedCheck(t, "voidness flip", eng, ix, 2)
	if hasIgnored() {
		t.Fatal("stale ignored-return finding survived a cross-module voidness flip")
	}
}

// corpusCountRule is a test-only fused rule with a corpus hook other
// than RecursionRule's: one finding naming the defined-function count.
type corpusCountRule struct{}

func (corpusCountRule) ID() string       { return "zz-corpus-count" }
func (corpusCountRule) Describe() string { return "test-only corpus-level rule" }
func (r corpusCountRule) Check(ctx *rules.Context) []rules.Finding {
	return []rules.Finding{{RuleID: r.ID(), File: "~corpus", Msg: fmt.Sprintf("%d functions", len(ctx.ByName))}}
}
func (r corpusCountRule) Fuse(rg *rules.Registrar, ctx *rules.Context) {
	rg.OnCorpus(func(ctx *rules.Context, em *rules.Emitter) {
		for _, f := range r.Check(ctx) {
			em.Emit(f)
		}
	})
}

// TestShardedOtherCorpusHooks pins that corpus hooks besides the
// recursion rule's re-run whenever the index changed.
func TestShardedOtherCorpusHooks(t *testing.T) {
	fs := srcfile.NewFileSet()
	fs.AddSource("m/a.c", "int fa(int x) { return fa(x); }\n")
	fs.AddSource("n/b.c", "int fb(int x) { return x; }\n")
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs[0])
	}
	ix := artifact.Build(units)
	rs := append(rules.DefaultRules(), corpusCountRule{})
	eng := rules.NewSharded(rs)
	for step, files := range []map[string]string{
		nil,
		{"o/c.c": "int fc(int x) { return x; }\n"},
		{"m/a.c": "int fa(int x) { return x; }\nint fd(int x) { return x; }\n"},
	} {
		applyFiles(t, ix, files)
		ctx := rules.NewContextFromIndex(ix)
		warm, cold := eng.Run(ctx), rules.RunSequential(ctx, rs)
		if got, want := renderFindings(warm), renderFindings(cold); !bytes.Equal(got, want) {
			t.Fatalf("step %d: sharded output differs from sequential reference\n%s", step, firstDiff(want, got))
		}
	}
}
