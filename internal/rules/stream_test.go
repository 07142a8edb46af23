package rules_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccparse"
	"repro/internal/rules"
	"repro/internal/srcfile"
)

// TestStreamRunsNeverWritten pins the contract /findings' run reuse
// rests on (Sharded.Stream): runs are non-empty, a streamed run's
// elements are never written afterwards, and a run with the same first
// element and length holds the same findings. It keeps a deep copy of
// every run streamed so far and drives Update through every way a
// segment is replaced; after each step every earlier run must still
// equal its copy. A step named "restored ..." first swaps the engine for
// one seeded by RestoreCache from its state.
func TestStreamRunsNeverWritten(t *testing.T) {
	forceParallel(t)
	base := map[string]string{
		"m/lib.c":       "int helper(int x) { return x + 1; }\nint g_seen;\n",
		"m/more.c":      "int more(int k) { if (k > 1) { return 1; } return 0; }\n",
		"n/caller.c":    "void caller(void) { helper(4); }\nint cal(int k) { if (k) { return 1; } return 0; }\n",
		"s/ping.c":      "int ping(int n) { return pong(n); }\nint pang(int n) { if (n) { return 1; } return 0; }\n",
		"t/unrelated.c": gotoQuiet,
	}
	steps := []struct {
		name    string
		applies []map[string]string
	}{
		{"body edit that drops a finding", []map[string]string{{"t/unrelated.c": "int quiet(int k) { if (k > 1) { return 1; } return 0; }\n"}}},
		{"body edit that adds it back", []map[string]string{{"t/unrelated.c": gotoQuiet}}},
		{"rename with a reader in another shard", []map[string]string{{"m/lib.c": "int helper2(int x) { return x + 1; }\nint g_seen;\n"}}},
		{"file added", []map[string]string{{"w/new.c": "int added(int k) { if (k) { return 1; } return 0; }\n"}}},
		{"file removed", []map[string]string{{"w/new.c": del}}},
		{"cycle made", []map[string]string{{"u/pong.c": pongCalls("ping(n)")}}},
		{"cycle member's line moved", []map[string]string{{"s/ping.c": "\n" + base["s/ping.c"]}}},
		{"cycle broken", []map[string]string{{"u/pong.c": pongCalls("n")}}},
		{"module emptied", []map[string]string{{"n/caller.c": del}}},
		{"module re-added", []map[string]string{{"n/caller.c": base["n/caller.c"]}}},
		{"feed overrun", []map[string]string{
			{"z/flood.c": manyVoids(artifact.FeedRetention + 1)},
			{"t/unrelated.c": "int quiet(int k) { return k; }\n"},
		}},
		{"restored, cycle remade", []map[string]string{{"u/pong.c": pongCalls("ping(n)")}}},
		{"body edit after restore", []map[string]string{{"m/more.c": "int more(int k) { return k; }\n"}}},
		{"restored again, no change", nil},
	}

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

	type key struct {
		first *rules.Finding
		n     int
	}
	var runs [][]rules.Finding // every run streamed so far
	var copies [][]rules.Finding
	seen := make(map[key]int) // index into copies
	stream := func(stage string) {
		t.Helper()
		shardedCheck(t, stage, eng, ix, -1)
		eng.Stream(func(run []rules.Finding) {
			if len(run) == 0 {
				t.Fatalf("%s: empty run streamed", stage)
			}
			k := key{&run[0], len(run)}
			if i, ok := seen[k]; ok {
				if !reflect.DeepEqual(run, copies[i]) {
					t.Fatalf("%s: a run with the same first element and length as an earlier one holds other findings", stage)
				}
				return
			}
			cp := slices.Clone(run)
			for i := range cp {
				cp[i].Refs = slices.Clone(cp[i].Refs)
			}
			seen[k] = len(copies)
			runs, copies = append(runs, run), append(copies, cp)
		})
		for i, run := range runs {
			if !reflect.DeepEqual(run, copies[i]) {
				t.Fatalf("%s: run %d of %d, first streamed as %s:%d, was written after it was streamed",
					stage, i, len(runs), copies[i][0].File, copies[i][0].Line)
			}
		}
	}

	stream("cold")
	for _, st := range steps {
		if strings.HasPrefix(st.name, "restored") {
			eng = restoredEngine(t, eng, ix)
		}
		for _, files := range st.applies {
			applyFiles(t, ix, files)
		}
		stream(st.name)
	}
}
