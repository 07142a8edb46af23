package artifact_test

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/ccast"
)

// requireUnitGens checks UnitGen for every listed path.
func requireUnitGens(t *testing.T, stage string, ix *artifact.Index, want map[string]uint64) {
	t.Helper()
	for p, g := range want {
		if got := ix.UnitGen(p); got != g {
			t.Errorf("%s: UnitGen(%s) = %d, want %d", stage, p, got, g)
		}
	}
}

// TestUnitGen pins the per-unit generation the rule and metrics caches
// key on: a build or restore stamps every unit with the index
// generation, Apply moves exactly the upserted paths (a module-override
// move included), and a removed path reads 0.
func TestUnitGen(t *testing.T) {
	ix := artifact.Build(smallUnits(t))
	g0 := ix.Gen()
	if g0 == 0 {
		t.Fatal("Build left the index at generation 0")
	}
	requireUnitGens(t, "build", ix, map[string]uint64{"m/a.c": g0, "m/b.c": g0, "n/c.c": g0})

	recs := make(map[string][]*artifact.Func, len(ix.Paths))
	globals := make(map[string][]string, len(ix.Paths))
	for _, p := range ix.Paths {
		recs[p], globals[p] = ix.UnitFuncs(p), ix.UnitFacts(p).Globals
	}
	restored, err := artifact.BuildFromRecords(ix.Units, recs, globals)
	if err != nil {
		t.Fatal(err)
	}
	rg := restored.Gen()
	requireUnitGens(t, "restore", restored, map[string]uint64{"m/a.c": rg, "m/b.c": rg, "n/c.c": rg})

	// A body edit of m/b.c: only that path moves.
	applyUnits(ix, []*ccast.TranslationUnit{parseOne(t, "m/b.c", "int fb(int x) { return x; }\n")}, nil)
	g1 := ix.Gen()
	if g1 <= g0 {
		t.Fatalf("Apply did not advance the generation: %d -> %d", g0, g1)
	}
	requireUnitGens(t, "edit", ix, map[string]uint64{"m/a.c": g0, "m/b.c": g1, "n/c.c": g0})

	// A module override moves n/c.c into shard m with unchanged source:
	// the upsert moves its generation, and it now sits in shard m.
	moved := parseOne(t, "n/c.c", ix.Units["n/c.c"].File.Src)
	moved.File.Module = "m"
	applyUnits(ix, []*ccast.TranslationUnit{moved}, nil)
	g2 := ix.Gen()
	requireUnitGens(t, "module move", ix, map[string]uint64{"m/a.c": g0, "m/b.c": g1, "n/c.c": g2})
	if ix.Shard("n") != nil || len(ix.Shard("m").Paths()) != 3 {
		t.Fatalf("module move: shards n=%v m=%v", ix.Shard("n"), ix.Shard("m").Paths())
	}

	// Removal: the path reads 0, the others keep their values.
	applyUnits(ix, nil, []string{"m/a.c"})
	requireUnitGens(t, "remove", ix, map[string]uint64{"m/a.c": 0, "m/b.c": g1, "n/c.c": g2})

	if ix.UnitGen("nope/absent.c") != 0 {
		t.Fatal("an unknown path has a generation")
	}
}
