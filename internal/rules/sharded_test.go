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
	applyUnits(ix, []*ccast.TranslationUnit{tu}, nil)
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

// shardedCheck runs the sharded engine against the sequential reference
// engine over a fresh context and asserts byte-identical output,
// matching stats, and (when wantDirty >= 0) the expected number of
// re-checked files.
func shardedCheck(t *testing.T, stage string, eng *rules.Sharded, ix *artifact.Index, wantDirty int) {
	t.Helper()
	warm := rules.Refresh(eng, ix)
	cold := rules.RunSequential(rules.NewContextFromIndex(ix), rules.DefaultRules())
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
	// other file calls: only the edited file is walked.
	victim := ix.Paths[len(ix.Paths)/2]
	reparse(t, ix, victim, ix.Units[victim].File.Src+
		"\nint sharded_probe(int x) { if (x > 2) { return 1; } return 0; }\n")
	shardedCheck(t, "new-function edit", eng, ix, 1)

	// Removing the file undefines its functions, but no remaining file
	// calls them, so nothing is walked.
	applyUnits(ix, nil, []string{victim})
	shardedCheck(t, "removal", eng, ix, 0)
	shardedCheck(t, "post-removal rerun", eng, ix, 0)
}

// del marks a removal in a shardedStep's file map.
const del = "\x00removed"

// shardedStep is one round of TestShardedNameDependencies: one Apply per
// map (path → new source, or del), then one Run that must match a cold
// run and walk exactly dirty files. A step named "restored ..." first
// swaps the engine for one seeded by RestoreCache from its state; one
// named "full ..." must fall behind the change feed. When roots is set,
// the run's recursion update must root Tarjan at exactly those names.
type shardedStep struct {
	name    string
	applies []map[string]string
	dirty   int
	roots   []string
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
	applyUnits(ix, upserts, removals)
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

// gotoQuiet is t/unrelated.c's quiet with the base corpus's only goto.
const gotoQuiet = "int quiet(int k) { if (k > 1) { goto out; } return 0; out: return 1; }\n"

// TestShardedNameDependencies pins the name-level invalidation contract:
// after a delta, the warm engine walks exactly the content-changed files,
// however the callee voidness or global membership of names other files
// read moved (their conditioned findings flip without a walk), its output
// stays byte-identical to a cold run, and its counts, kept by
// difference, equal a flat Aggregate.
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
		// Only m/lib.c (edited) is walked: n/caller.c's ignored-return
		// finding on helper flips without a walk.
		{"callee voidness flip", []shardedStep{
			{"to void", []map[string]string{{"m/lib.c": "void helper(int x) { (void)x; }\nint g_seen;\n"}}, 1, nil},
			{"back to int", []map[string]string{{"m/lib.c": base["m/lib.c"]}}, 1, nil},
		}},
		{"callee rename", []shardedStep{
			{"rename", []map[string]string{{"m/lib.c": "int helper2(int x) { return x + 1; }\nint g_seen;\n"}}, 1, nil},
			{"rename back", []map[string]string{{"m/lib.c": base["m/lib.c"]}}, 1, nil},
		}},
		{"remove then re-add", []shardedStep{
			{"remove", []map[string]string{{"m/lib.c": del}}, 0, nil},
			{"re-add", []map[string]string{{"m/lib.c": base["m/lib.c"]}}, 1, nil},
		}},
		{"earlier-path duplicate flips the champion", []shardedStep{
			{"add void dup first in path order", []map[string]string{{"a/early.c": "void dup(int x) { (void)x; }\n"}}, 1, nil},
			{"remove it", []map[string]string{{"a/early.c": del}}, 0, nil},
		}},
		{"shadowed global added and removed", []shardedStep{
			{"add global", []map[string]string{{"g/glob.c": "int g_probe = 0;\n"}}, 1, nil},
			{"remove global", []map[string]string{{"g/glob.c": del}}, 0, nil},
		}},
		{"cross-file cycle made and broken", []shardedStep{
			{"make", []map[string]string{{"u/pong.c": "int pong(int n) { return ping(n); }\n"}}, 1, nil},
			// A body edit moves a member's line, not the graph: its finding
			// is re-rendered without an SCC.
			{"move a member's line", []map[string]string{{"s/ping.c": "\n" + base["s/ping.c"]}}, 1, nil},
			{"break by callee change", []map[string]string{{"u/pong.c": "int pong(int n) { return n; }\n"}}, 1, nil},
			{"remake", []map[string]string{{"u/pong.c": "int pong(int n) { return ping(n); }\n"}}, 1, nil},
			{"break by removal", []map[string]string{{"u/pong.c": del}}, 0, nil},
		}},
		{"two applies between one pair of runs", []shardedStep{
			{"flip and add global", []map[string]string{
				{"m/lib.c": "void helper(int x) { (void)x; }\nint g_seen;\n"},
				{"g/glob.c": "int g_probe = 0;\n"},
			}, 2, nil},
			{"flip back and body edit", []map[string]string{
				{"m/lib.c": base["m/lib.c"]},
				{"t/unrelated.c": "int quiet(int k) { return k; }\n"},
			}, 2, nil},
		}},
		{"more names than the scan takes", []shardedStep{
			// However many names move, only the added file is walked;
			// o/shadow.c's local g_probe flips to a shadowing finding.
			{"add", []map[string]string{{"g/many.c": manyGlobals(200) + "int g_probe;\n"}}, 1, nil},
			{"remove", []map[string]string{{"g/many.c": del}}, 0, nil},
			{"body edit after", []map[string]string{{"t/unrelated.c": "int quiet(int k) { return k; }\n"}}, 1, nil},
		}},
		{"one apply larger than the feed bound", []shardedStep{
			// The newest generation is never dropped: a run one Apply
			// behind still reads all of it, so the one shadowed global
			// flips o/shadow.c's condition.
			{"flood", []map[string]string{{"z/flood.c": manyVoids(artifact.FeedRetention+1) + "int g_probe;\n"}}, 1, nil},
		}},
		{"feed overrun", []shardedStep{
			// The body edit's Apply drops the flood generation, which the
			// engine had not read, shadowed global included: every
			// condition is re-evaluated, and only the two changed files
			// are walked.
			{"full flood then body edit", []map[string]string{
				{"z/flood.c": manyVoids(artifact.FeedRetention+1) + "int g_probe;\n"},
				{"t/unrelated.c": "int quiet(int k) { return k; }\n"},
			}, 2, nil},
			{"body edit after overrun", []map[string]string{{"t/unrelated.c": base["t/unrelated.c"]}}, 1, nil},
		}},
		{"body edits past the feed bound", []shardedStep{
			// Body edits record nothing, so no number of them overruns.
			{"edits", bodyEdits("t/unrelated.c", artifact.FeedRetention+1), 1, nil},
		}},
		// The counts move by the edited file's difference. A goto is the
		// only finding of its rule: removing it takes the rule's count, and
		// its (rule, module) pair, to zero, and a count kept at zero would
		// differ from a flat Aggregate.
		{"findings change in place", []shardedStep{
			{"add the only goto", []map[string]string{{"t/unrelated.c": gotoQuiet}}, 1, nil},
			{"drop it again", []map[string]string{{"t/unrelated.c": base["t/unrelated.c"]}}, 1, nil},
			{"drop the module's last multi-exit", []map[string]string{{"t/unrelated.c": "int quiet(int k) { return k; }\n"}}, 1, nil},
		}},
		{"two applies before one run move the counts once", []shardedStep{
			{"findings change twice", []map[string]string{
				{"t/unrelated.c": gotoQuiet},
				{"t/unrelated.c": "int quiet(int k) { return k; }\n"},
			}, 1, nil},
			{"a file added and removed", []map[string]string{
				{"w/gone.c": "int gone(int k) { if (k) { return 1; } return 0; }\n"},
				{"w/gone.c": del},
			}, 0, nil},
		}},
		// An earlier path's definition with the same callees and voidness
		// takes over as a cyclic name's champion without a feed entry, so
		// the cached finding must move with the changed file alone.
		{"champion taken over without a feed entry", []shardedStep{
			{"make", []map[string]string{{"u/pong.c": "int pong(int n) { return ping(n); }\n"}}, 1, nil},
			{"earlier duplicate", []map[string]string{{"a/pong.c": "\nint pong(int n) { return ping(n); }\n"}}, 1, nil},
			{"re-parse keeps the finding", []map[string]string{{"a/pong.c": "\nint pong(int n) { return ping(n + 0); }\n"}}, 1, nil},
			{"remove the duplicate", []map[string]string{{"a/pong.c": del}}, 0, nil},
			{"duplicate added and removed before one run", []map[string]string{
				{"a/pong.c": "int pong(int n) { return ping(n); }\n"},
				{"a/pong.c": del},
			}, 0, nil},
		}},
		// The on-cycle set's component bookkeeping. Each row ends by
		// breaking a cycle at a node that no longer reaches its
		// cycle-mates, which leave the set only if the node's component
		// roots them. A change touching one component roots Tarjan at its
		// members alone; a restored engine knows no component, so its
		// first graph change roots at every on-cycle name, while a fresh
		// engine's full SCC, cold-run or filled from walks as a cold load
		// fills it, records every component, so its first rename roots at
		// the renamed name's component alone.
		{"two disjoint cycles, one broken", []shardedStep{
			{"make both", []map[string]string{{"u/pong.c": pongCalls("ping(n)"), "v/one.c": oneCalls("two(n)"), "v/two.c": twoCalls("one(n)")}}, 3,
				[]string{"one", "pong", "two"}},
			{"break one, the other stays", []map[string]string{{"u/pong.c": pongCalls("n")}}, 1, []string{"ping", "pong"}},
			{"break the other", []map[string]string{{"v/one.c": oneCalls("n")}}, 1, []string{"one", "two"}},
		}},
		{"a new edge merges two cycles, its removal splits them", []shardedStep{
			{"make both, linked one way", []map[string]string{{"u/pong.c": pongCalls("ping(n)"), "v/one.c": oneCalls("two(n)"), "v/two.c": twoCalls("one(n) + ping(n)")}}, 3, nil},
			{"merge", []map[string]string{{"u/pong.c": pongCalls("ping(n) + one(n)")}}, 1, []string{"ping", "pong"}},
			{"split", []map[string]string{{"u/pong.c": pongCalls("ping(n)")}}, 1, []string{"one", "ping", "pong", "two"}},
			{"break the first", []map[string]string{{"v/one.c": oneCalls("n")}}, 1, []string{"one", "two"}},
			{"break the second", []map[string]string{{"u/pong.c": pongCalls("n")}}, 1, []string{"ping", "pong"}},
		}},
		{"first graph change on a restored engine", []shardedStep{
			{"make both", []map[string]string{{"u/pong.c": pongCalls("ping(n)"), "v/one.c": oneCalls("two(n)"), "v/two.c": twoCalls("one(n)")}}, 3, nil},
			{"restored, break one", []map[string]string{{"u/pong.c": pongCalls("n")}}, 1, []string{"one", "ping", "pong", "two"}},
			{"restored again, break the other", []map[string]string{{"v/one.c": oneCalls("n")}}, 1, []string{"one", "two"}},
		}},
		{"first rename on a cold-run engine", []shardedStep{
			{"make both", []map[string]string{{"u/pong.c": pongCalls("ping(n)"), "v/one.c": oneCalls("two(n)"), "v/two.c": twoCalls("one(n)")}}, 3, nil},
			{"cold run, rename pong", []map[string]string{{"u/pong.c": "int pong2(int n) { return ping(n); }\n"}}, 1, []string{"ping", "pong", "pong2"}},
		}},
		{"first rename on a filled engine", []shardedStep{
			{"make both", []map[string]string{{"u/pong.c": pongCalls("ping(n)"), "v/one.c": oneCalls("two(n)"), "v/two.c": twoCalls("one(n)")}}, 3, nil},
			{"filled, rename pong", []map[string]string{{"u/pong.c": "int pong2(int n) { return ping(n); }\n"}}, 1, []string{"ping", "pong", "pong2"}},
			{"rename one", []map[string]string{{"v/one.c": "int one2(int n) { return two(n); }\n"}}, 1, []string{"one", "one2", "two"}},
		}},
		{"joining a cycle through a node that was acyclic", []shardedStep{
			{"make", []map[string]string{{"u/pong.c": pongCalls("ping(n)")}}, 1, nil},
			{"add an acyclic chain into it", []map[string]string{{"x/hop.c": "int hop(int n) { return ping(n); }\n", "y/far.c": "int far(int n) { return hop(n); }\n"}}, 2, nil},
			{"close the chain", []map[string]string{{"u/pong.c": pongCalls("ping(n) + far(n)")}}, 1, nil},
			{"open it again", []map[string]string{{"u/pong.c": pongCalls("ping(n)")}}, 1, nil},
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
				switch {
				case strings.HasPrefix(st.name, "restored"):
					eng = restoredEngine(t, eng, ix)
				case strings.HasPrefix(st.name, "cold run"):
					eng = rules.NewSharded(rules.DefaultRules())
					shardedCheck(t, "cold run", eng, ix, len(ix.Paths))
				case strings.HasPrefix(st.name, "filled"):
					eng = filledEngine(t, ix)
				}
				for _, files := range st.applies {
					applyFiles(t, ix, files)
				}
				if st.roots != nil {
					if got := rules.CycleRoots(eng, ix); !reflect.DeepEqual(got, st.roots) {
						t.Fatalf("%s: Tarjan roots = %q, want %q", st.name, got, st.roots)
					}
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

// pongCalls, oneCalls and twoCalls return the sources of u/pong.c,
// v/one.c and v/two.c, whose one function returns expr.
func pongCalls(expr string) string { return "int pong(int n) { return " + expr + "; }\n" }
func oneCalls(expr string) string  { return "int one(int n) { return " + expr + "; }\n" }
func twoCalls(expr string) string  { return "int two(int n) { return " + expr + "; }\n" }

// restoredEngine returns a new engine seeded by RestoreCache from eng's
// state over ix, as a snapshot restore seeds one.
func restoredEngine(t *testing.T, eng *rules.Sharded, ix *artifact.Index) *rules.Sharded {
	t.Helper()
	corpus, ok := eng.CorpusFindings()
	if !ok {
		t.Fatal("no corpus segment to restore from")
	}
	shards := make(map[string][][]rules.Finding)
	conds := make(map[string]*rules.Conditions)
	for _, m := range ix.ShardNames() {
		if files, c, ok := eng.ShardFindings(m); ok {
			shards[m], conds[m] = files, c
		}
	}
	restored := rules.NewSharded(rules.DefaultRules())
	restored.RestoreCache(ix, corpus, shards, conds, nil)
	return restored
}

// filledEngine returns a new engine filled by Fill from one walker's
// walk of every file of ix, as a cold load's per-file step fills one,
// after checking it answers as a cold run over ix does.
func filledEngine(t *testing.T, ix *artifact.Index) *rules.Sharded {
	t.Helper()
	w := rules.NewWalker(rules.DefaultRules())
	walks := make(map[string]rules.FileWalk)
	for _, p := range ix.Paths {
		walks[p] = w.Walk(ix.Units[p], ix.UnitFuncs(p))
	}
	eng := rules.NewSharded(rules.DefaultRules())
	eng.Fill(ix, walks)
	if eng.LastDirty() != len(ix.Paths) {
		t.Fatalf("Fill walked %d files, want %d", eng.LastDirty(), len(ix.Paths))
	}
	shardedCheck(t, "filled", eng, ix, 0)
	return eng
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
	for _, f := range rules.Refresh(eng, ix) {
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
		for _, f := range rules.Refresh(eng, ix) {
			if f.RuleID == "defensive" && f.File == "n/b.c" {
				return true
			}
		}
		return false
	}
	if !hasIgnored() {
		t.Fatal("ignored-return finding missing before the edit")
	}
	// helper becomes void: n/b.c's cached finding is stale and must go,
	// without a walk of n/b.c.
	reparse(t, ix, "m/a.c", "void helper(int x) { (void)x; }\n")
	shardedCheck(t, "voidness flip", eng, ix, 1)
	if hasIgnored() {
		t.Fatal("stale ignored-return finding survived a cross-module voidness flip")
	}
}
