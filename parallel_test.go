package repro_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/service"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// The shard-parallel corpus operations (cold build, snapshot codec,
// restore, batched delta) claim byte-identical results at any worker
// count. These tests pin that claim at GOMAXPROCS 1 (the sequential
// degenerate case), 2, and 8 — Go happily runs more Ps than the machine
// has cores, so the 8-way schedule interleaves even on a single-core
// runner. Under -race (CI runs `go test -race ./...`) they double as
// data-race probes over every parallel join point.

var gomaxprocsLevels = []int{1, 2, 8}

func withGOMAXPROCS(n int, fn func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func parallelParams() corpusgen.Params {
	return corpusgen.Params{Modules: 5, FilesPerModule: 4, FuncsPerFile: 3,
		ViolationsPerFile: 2, CUDAFiles: 1}
}

// canonicalState renders an assessor's observable output — the wire-
// projected findings plus the full report — as one byte string, the
// comparison space every other differential check in the repo uses.
func canonicalState(t *testing.T, a *core.Assessor) []byte {
	t.Helper()
	fr, err := json.Marshal(service.FindingRows(a.Findings()))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := json.Marshal(service.BuildReport("par", a))
	if err != nil {
		t.Fatal(err)
	}
	return append(append(fr, '\n'), rep...)
}

// TestParallelColdBuildDeterminism: a cold LoadFileSet + Findings +
// Metrics run (parallel shard rebuild, rule segments, metric partials)
// must be byte-identical at every GOMAXPROCS level.
func TestParallelColdBuildDeterminism(t *testing.T) {
	var want []byte
	for _, gmp := range gomaxprocsLevels {
		withGOMAXPROCS(gmp, func() {
			gen := corpusgen.New(parallelParams(), 26262)
			a := core.NewAssessor(core.DefaultConfig())
			if err := a.LoadFileSet(gen.FileSet()); err != nil {
				t.Fatal(err)
			}
			got := canonicalState(t, a)
			if want == nil {
				want = got
				return
			}
			if !bytes.Equal(want, got) {
				t.Errorf("cold build at GOMAXPROCS %d diverges from GOMAXPROCS %d", gmp, gomaxprocsLevels[0])
			}
		})
	}
}

// TestParallelSnapshotDeterminism: the parallel snapshot encoder must
// emit byte-identical images at every GOMAXPROCS level, and the
// parallel open/decode/restore pipeline must reconstruct byte-identical
// assessor state from that image at every level.
func TestParallelSnapshotDeterminism(t *testing.T) {
	gen := corpusgen.New(parallelParams(), 31)
	warm := core.NewAssessor(core.DefaultConfig())
	if err := warm.LoadFileSet(gen.FileSet()); err != nil {
		t.Fatal(err)
	}
	want := canonicalState(t, warm)
	warm.Metrics()
	st, err := warm.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	var image []byte
	for _, gmp := range gomaxprocsLevels {
		withGOMAXPROCS(gmp, func() {
			raw := store.EncodeSnapshot(st, 7)
			if image == nil {
				image = raw
			} else if !bytes.Equal(image, raw) {
				t.Errorf("snapshot encoded at GOMAXPROCS %d differs from GOMAXPROCS %d", gmp, gomaxprocsLevels[0])
			}
		})
	}

	for _, gmp := range gomaxprocsLevels {
		withGOMAXPROCS(gmp, func() {
			snap, err := store.OpenSnapshot(image)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: open: %v", gmp, err)
			}
			rec, err := core.RestoreAssessorFrom(core.DefaultConfig(), snap)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: restore: %v", gmp, err)
			}
			if got := canonicalState(t, rec); !bytes.Equal(want, got) {
				t.Errorf("restore at GOMAXPROCS %d diverges from the exporting assessor", gmp)
			}
		})
	}
}

// TestApplyDeltaBatchMatchesSequential: committing a mutation sequence
// as one ApplyDeltaBatch (including a remove-then-re-add of the same
// path, the case MergeDeltas folds into remove-plus-fresh-add) must
// land on the same observable state as applying it delta by delta.
func TestApplyDeltaBatchMatchesSequential(t *testing.T) {
	for _, gmp := range gomaxprocsLevels {
		withGOMAXPROCS(gmp, func() {
			genA := corpusgen.New(parallelParams(), 99)
			genB := corpusgen.New(parallelParams(), 99)
			seq := core.NewAssessor(core.DefaultConfig())
			bat := core.NewAssessor(core.DefaultConfig())
			if err := seq.LoadFileSet(genA.FileSet()); err != nil {
				t.Fatal(err)
			}
			if err := bat.LoadFileSet(genB.FileSet()); err != nil {
				t.Fatal(err)
			}

			// A deterministic mutation burst, plus a remove-then-re-add
			// pair on a surviving path.
			var ds []core.Delta
			for i := 0; i < 6; i++ {
				mut := genA.Mutate()
				if mut.Kind == corpusgen.MutRemove {
					ds = append(ds, core.Delta{Removed: []string{mut.Path}})
				} else {
					ds = append(ds, core.Delta{Changed: []*srcfile.File{{Path: mut.Path, Src: mut.Src}}})
				}
			}
			p := genA.Paths()[0]
			src := genA.Source(p)
			ds = append(ds,
				core.Delta{Removed: []string{p}},
				core.Delta{Changed: []*srcfile.File{{Path: p, Src: src}}})

			for _, d := range ds {
				// Fresh File values per assessor: CommitDelta makes the
				// passed files corpus-resident.
				cp := core.Delta{Removed: d.Removed}
				for _, f := range d.Changed {
					cp.Changed = append(cp.Changed, &srcfile.File{Path: f.Path, Src: f.Src})
				}
				if _, err := seq.ApplyDelta(cp); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := bat.ApplyDeltaBatch(ds); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(canonicalState(t, seq), canonicalState(t, bat)) {
				t.Errorf("GOMAXPROCS %d: batched commit diverges from sequential deltas", gmp)
			}
		})
	}
}

// TestSingleDeltaBatchIdentity: a one-delta batch is exactly ApplyDelta
// — same DeltaResult counts, same observable state.
func TestSingleDeltaBatchIdentity(t *testing.T) {
	genA := corpusgen.New(parallelParams(), 7)
	genB := corpusgen.New(parallelParams(), 7)
	one := core.NewAssessor(core.DefaultConfig())
	bat := core.NewAssessor(core.DefaultConfig())
	if err := one.LoadFileSet(genA.FileSet()); err != nil {
		t.Fatal(err)
	}
	if err := bat.LoadFileSet(genB.FileSet()); err != nil {
		t.Fatal(err)
	}
	mut := genA.Mutate()
	if mut.Kind == corpusgen.MutRemove {
		t.Fatalf("seed 7 first mutation is a remove; pick a seed whose first mutation carries content")
	}
	r1, err := one.ApplyDelta(core.Delta{Changed: []*srcfile.File{{Path: mut.Path, Src: mut.Src}}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := bat.ApplyDeltaBatch([]core.Delta{{Changed: []*srcfile.File{{Path: mut.Path, Src: mut.Src}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock observability fields (ParseNs, HookNs) legitimately
	// differ between two runs of the same work; the identity claim is
	// about the semantic fields.
	c1, c2 := *r1, *r2
	c1.ParseNs, c1.HookNs = 0, 0
	c2.ParseNs, c2.HookNs = 0, 0
	if c1 != c2 {
		t.Errorf("DeltaResult differs: ApplyDelta %+v, 1-batch %+v", *r1, *r2)
	}
	if !bytes.Equal(canonicalState(t, one), canonicalState(t, bat)) {
		t.Error("1-delta batch diverges from ApplyDelta")
	}
	if _, err := bat.ApplyDeltaBatch(nil); err == nil {
		t.Error("empty batch should be rejected")
	}
}
