package core

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/srcfile"
)

// twoModuleAssessor loads and warms a four-file corpus split over the
// modules "ma" and "mb".
func twoModuleAssessor(t *testing.T) *Assessor {
	t.Helper()
	fs := srcfile.NewFileSet()
	fs.AddSource("ma/a.c", "int g_a;\nint fa(int x) {\n  if (x < 0) return 0;\n  return x;\n}\n")
	fs.AddSource("ma/b.c", "int fb(int x) { return fa(x) + 1; }\n")
	fs.AddSource("mb/c.c", "int g_c;\nint fc(int* p) { return p[0]; }\n")
	fs.AddSource("mb/d.c", "void fd(int x) { fc(&x); }\n")
	a := NewAssessor(DefaultConfig())
	if err := a.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	a.Assess()
	return a
}

// TestRestoreRejectsMalformedState edits a fresh export of a warm
// assessor per case: a malformed state must fail restore with an error,
// and a shard whose finding lists or metric rows are one short must
// restore with that block recomputed. Edits replace or re-slice slices;
// none writes into the caches' views.
func TestRestoreRejectsMalformedState(t *testing.T) {
	live := twoModuleAssessor(t)
	if len(live.Findings()) == 0 {
		t.Fatal("the corpus draws no findings; the short-block cases would prove nothing")
	}
	cases := []struct {
		name string
		edit func(st *PersistedState)
		// wantErr is a substring of the expected error; empty means the
		// state restores with recomputed blocks.
		wantErr    string
		recomputed int
	}{
		{"unedited", func(st *PersistedState) {}, "", 0},
		{"rule-set mismatch", func(st *PersistedState) {
			st.RuleIDs = st.RuleIDs[1:]
		}, "rule set", 0},
		{"no files", func(st *PersistedState) {
			st.Files = nil
		}, "no files", 0},
		{"file without a path", func(st *PersistedState) {
			st.Files = slices.Clone(st.Files)
			st.Files[1].Path = ""
		}, "without a path", 0},
		{"duplicate file", func(st *PersistedState) {
			st.Files = append(slices.Clone(st.Files), st.Files[0])
		}, "holds ma/a.c twice", 0},
		{"unit under the other module's shard", func(st *PersistedState) {
			ma, mb := &st.Shards[0], &st.Shards[1]
			mb.Units = append(slices.Clone(mb.Units), ma.Units[0])
			ma.Units = ma.Units[1:]
		}, `filed under shard "mb"`, 0},
		{"unit without a file", func(st *PersistedState) {
			ma := &st.Shards[0]
			ma.Units = slices.Clone(ma.Units)
			ma.Units[0].Path = "ma/zz_ghost.c"
		}, "has no file", 0},
		{"same unit in two shards", func(st *PersistedState) {
			dup := PersistedShard{Module: "ma", Units: st.Shards[0].Units[:1]}
			st.Shards = append(slices.Clone(st.Shards), dup)
		}, "holds unit ma/a.c twice", 0},
		{"file without a unit", func(st *PersistedState) {
			mb := &st.Shards[1]
			mb.Units, mb.Findings, mb.Rows = mb.Units[1:], mb.Findings[1:], mb.Rows[1:]
		}, "4 files but 3 units", 0},
		{"extra shard without units", func(st *PersistedState) {
			st.Shards = append(slices.Clone(st.Shards), PersistedShard{Module: "zz_empty"})
		}, "3 shards but its units form 2", 0},
		{"finding lists one short", func(st *PersistedState) {
			ma := &st.Shards[0]
			ma.Findings = ma.Findings[:len(ma.Findings)-1]
		}, "", 1},
		{"metric rows one short", func(st *PersistedState) {
			mb := &st.Shards[1]
			mb.Rows = mb.Rows[:len(mb.Rows)-1]
		}, "", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := live.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Shards) != 2 || st.Shards[0].Module != "ma" || len(st.Shards[1].Units) != 2 {
				t.Fatalf("export does not hold the two two-file shards ma and mb: %+v", st.Shards)
			}
			tc.edit(st)
			rec, err := RestoreAssessorFrom(DefaultConfig(), st)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("restore error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := rec.RecomputedBlocks(); n != tc.recomputed {
				t.Fatalf("RecomputedBlocks() = %d, want %d", n, tc.recomputed)
			}
			if !reflect.DeepEqual(rec.Findings(), live.Findings()) {
				t.Fatal("restored findings differ from the live assessor's")
			}
			if !reflect.DeepEqual(rec.Metrics().Files(), live.Metrics().Files()) {
				t.Fatal("restored metric rows differ from the live assessor's")
			}
		})
	}
}
