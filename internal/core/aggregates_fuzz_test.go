package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/corpusgen"
	"repro/internal/srcfile"
)

// FuzzIncrementalAggregates pins the aggregates the warm path keeps by
// per-file difference — the rule engine's Stats and on-cycle segment,
// the metrics module partials and totals (with Observation 14's
// multi-exit count), and the architectural counters — against a fresh
// cold assessor. It applies random deltas to a small generated corpus:
// plain adds, edits and removals, and the cross-file kinds, which
// rename, flip voidness, and make and break two-file call cycles. Up to
// four deltas are applied between two assessments, and when restoreAt is
// non-zero the first assessment at or after step restoreAt (modulo the
// step count) swaps the warm assessor for one restored from its exported
// state, so the cold fill, the restore and the warm update all feed the
// comparison.
func FuzzIncrementalAggregates(f *testing.F) {
	f.Add(int64(26262), uint8(24), uint8(0), uint8(0))
	f.Add(int64(7), uint8(40), uint8(2), uint8(9))
	f.Add(int64(31), uint8(31), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, k, per, restoreAt uint8) {
		g := corpusgen.New(corpusgen.Params{Modules: 3, FilesPerModule: 3, FuncsPerFile: 2,
			ViolationsPerFile: 2, CUDAFiles: 1, CrossFile: true}, seed)
		warm := NewAssessor(DefaultConfig())
		if err := warm.LoadFileSet(g.FileSet()); err != nil {
			t.Fatal(err)
		}
		warm.Assess()
		steps := int(k%48) + 1
		group := int(per%4) + 1 // deltas applied between two assessments
		restored := false
		for i := 0; i < steps; i++ {
			m := g.Mutate()
			var d Delta
			if m.Removal() {
				d.Removed = []string{m.Path}
			} else {
				d.Changed = []*srcfile.File{{Path: m.Path, Src: m.Src}}
			}
			if _, err := warm.ApplyDelta(d); err != nil {
				t.Fatalf("step %d (%s %s): %v", i, m.Kind, m.Path, err)
			}
			if (i+1)%group != 0 && i+1 < steps {
				continue
			}
			if restoreAt > 0 && !restored && i >= int(restoreAt)%steps {
				st, err := warm.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if warm, err = RestoreAssessorFrom(DefaultConfig(), st); err != nil {
					t.Fatal(err)
				}
				restored = true
			}
			requireColdAggregates(t, i, warm, g.FileSet())
		}
		if restoreAt > 0 && !restored {
			t.Fatal("the restore leg never ran")
		}
	})
}

// requireColdAggregates fails unless the warm assessor's Stats,
// Metrics, Arch and rendered assessment equal a cold run's over fs.
func requireColdAggregates(t *testing.T, step int, warm *Assessor, fs *srcfile.FileSet) {
	t.Helper()
	cold := NewAssessor(DefaultConfig())
	if err := cold.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	warmAs, coldAs := warm.Assess(), cold.Assess()
	if w, c := warm.Stats(), cold.Stats(); !reflect.DeepEqual(w, c) {
		t.Fatalf("step %d: Stats differ:\nwarm %+v\ncold %+v", step, *w, *c)
	}
	wm, cm := warm.Metrics(), cold.Metrics()
	if wm.TotalFiles != cm.TotalFiles || wm.TotalLOC != cm.TotalLOC || wm.TotalNLOC != cm.TotalNLOC ||
		wm.TotalFunc != cm.TotalFunc || wm.ModerateOrWorse != cm.ModerateOrWorse {
		t.Fatalf("step %d: metric totals differ", step)
	}
	if !reflect.DeepEqual(wm.Modules, cm.Modules) {
		t.Fatalf("step %d: module partials differ", step)
	}
	if !reflect.DeepEqual(wm.Files(), cm.Files()) {
		t.Fatalf("step %d: metric rows differ", step)
	}
	if !reflect.DeepEqual(warm.Arch(), cold.Arch()) {
		t.Fatalf("step %d: arch rows differ", step)
	}
	if w, c := renderAssessment(warm, warmAs), renderAssessment(cold, coldAs); !bytes.Equal(w, c) {
		t.Fatalf("step %d: rendered assessment differs from a cold run", step)
	}
}
