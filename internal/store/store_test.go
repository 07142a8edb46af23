package store_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/rules"
	"repro/internal/service"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// smallParams keeps store tests fast while still spanning several
// modules (shards), CUDA files, and injected violations.
var smallParams = corpusgen.Params{Modules: 4, FilesPerModule: 5,
	FuncsPerFile: 3, ViolationsPerFile: 2, CUDAFiles: 1}

func newWarmAssessor(t *testing.T, seed int64) (*core.Assessor, *corpusgen.Generator) {
	t.Helper()
	gen := corpusgen.New(smallParams, seed)
	a := core.NewAssessor(core.DefaultConfig())
	if err := a.LoadFileSet(gen.FileSet()); err != nil {
		t.Fatal(err)
	}
	a.Assess()
	return a, gen
}

// canonical renders findings through the service wire projection, the
// byte-space every engine path is compared in.
func canonical(t *testing.T, fs []rules.Finding) []byte {
	t.Helper()
	b, err := json.Marshal(service.FindingRows(fs))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func reportBytes(t *testing.T, a *core.Assessor) []byte {
	t.Helper()
	b, err := json.Marshal(service.BuildReport("c", a))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func shardStatsString(a *core.Assessor) string {
	return fmt.Sprintf("%v", a.ShardStats())
}

// requireIdentical asserts the full observable surface pinned by the
// acceptance criteria: findings, /report, and ShardStats.
func requireIdentical(t *testing.T, what string, want, got *core.Assessor) {
	t.Helper()
	if w, g := canonical(t, want.Findings()), canonical(t, got.Findings()); !bytes.Equal(w, g) {
		t.Fatalf("%s: findings diverge:\nwant %.200s\ngot  %.200s", what, w, g)
	}
	if w, g := reportBytes(t, want), reportBytes(t, got); !bytes.Equal(w, g) {
		t.Fatalf("%s: report diverges:\nwant %.300s\ngot  %.300s", what, w, g)
	}
	if w, g := shardStatsString(want), shardStatsString(got); w != g {
		t.Fatalf("%s: shard stats diverge:\nwant %s\ngot  %s", what, w, g)
	}
}

// coldAssessor re-parses the restored corpus sources from scratch — the
// reference the restored warm state must be byte-identical to.
func coldAssessor(t *testing.T, src *core.Assessor) *core.Assessor {
	t.Helper()
	fs := srcfile.NewFileSet()
	for _, f := range src.FileSet().Files() {
		fs.Add(&srcfile.File{Path: f.Path, Module: f.Module, Lang: f.Lang, Src: f.Src})
	}
	cold := core.NewAssessor(src.Config())
	if err := cold.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	return cold
}

func TestSnapshotRestoreByteIdentical(t *testing.T) {
	a, _ := newWarmAssessor(t, 26262)
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.OpenSnapshot(store.EncodeSnapshot(st, 1))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreAssessorFrom(core.DefaultConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "restored vs live", a, restored)

	// The restored caches must be warm: a post-restore run re-checks
	// nothing and the stubs were never parsed.
	restored.Findings()
	if n := restored.RuleFilesChecked(); n != 0 {
		t.Fatalf("restored run re-checked %d files, want 0", n)
	}
	restored.Metrics()
	if n := restored.MetricFilesComputed(); n != 0 {
		t.Fatalf("restored run recomputed %d metric rows, want 0", n)
	}
	if n, total := restored.StubUnits(), restored.FileSet().Len(); n != total {
		t.Fatalf("restored assessor parsed %d units eagerly (stubs %d/%d)", total-n, n, total)
	}

	// And byte-identical to a genuinely cold parse of the same tree.
	requireIdentical(t, "restored vs cold", coldAssessor(t, a), restored)
}

func TestSnapshotOfRestoredAssessorRoundTrips(t *testing.T) {
	a, _ := newWarmAssessor(t, 7)
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreAssessorFrom(core.DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot the restored (all-stub) assessor and restore again.
	st2, err := restored.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.OpenSnapshot(store.EncodeSnapshot(st2, 2))
	if err != nil {
		t.Fatal(err)
	}
	again, err := core.RestoreAssessorFrom(core.DefaultConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "second-generation restore", a, again)
}

func TestRestoredDeltaStaysWarmAndIdentical(t *testing.T) {
	a, gen := newWarmAssessor(t, 26262)
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreAssessorFrom(core.DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}

	// A content edit that keeps the exported surface: the restored
	// engine must re-check exactly the dirty file, not hydrate the
	// corpus.
	victim := gen.Paths()[len(gen.Paths())/2]
	edit := gen.Source(victim) + "\n// trailing comment\n"
	d := core.Delta{Changed: []*srcfile.File{{Path: victim, Src: edit}}}
	if _, err := restored.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{Path: victim, Src: edit}}}); err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "post-delta", a, restored)
	if n := restored.RuleFilesChecked(); n != 1 {
		t.Fatalf("restored delta re-checked %d files, want 1", n)
	}
	if stubs := restored.StubUnits(); stubs != restored.FileSet().Len()-1 {
		t.Fatalf("delta hydrated more than the edited file: %d stubs of %d files",
			stubs, restored.FileSet().Len())
	}
	requireIdentical(t, "post-delta vs cold", coldAssessor(t, a), restored)
}

func TestRestoredEnvironmentInvalidationHydrates(t *testing.T) {
	a, _ := newWarmAssessor(t, 26262)
	// A file that declares a local named after a global nobody defines
	// yet: it shadows the global once a later delta adds it.
	shadow := &srcfile.File{Path: "planning/zz_shadow_probe.cc",
		Src: "int ShadowProbe(int v) {\n  int g_store_test_probe = v;\n  return g_store_test_probe;\n}\n"}
	if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{shadow}}); err != nil {
		t.Fatal(err)
	}
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreAssessorFrom(core.DefaultConfig(), st)
	if err != nil {
		t.Fatal(err)
	}

	// Adding a file with a fresh global variable and a fresh non-void
	// function moves the facts of exactly those two names. The fused
	// engine re-walks the files spelling them — on a restored assessor
	// it must hydrate exactly those stubs, not walk bodyless
	// fabrications and not re-parse the rest of the corpus.
	add := &srcfile.File{Path: "perception/zz_new_global.cc",
		Src: "int g_store_test_probe = 4;\nint UseProbe() { return g_store_test_probe; }\n"}
	spells := regexp.MustCompile(`\b(g_store_test_probe|UseProbe)\b`)
	want := 0
	for _, f := range restored.FileSet().Files() {
		if spells.MatchString(f.Src) {
			want++
		}
	}
	if want != 1 {
		t.Fatalf("%d snapshot files spell the new names, want only the shadowing probe", want)
	}
	before := restored.StubUnits()
	for _, eng := range []*core.Assessor{a, restored} {
		if _, err := eng.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
			Path: add.Path, Src: add.Src}}}); err != nil {
			t.Fatal(err)
		}
	}
	requireIdentical(t, "post-invalidation", a, restored)
	if got := before - restored.StubUnits(); got != want {
		t.Fatalf("name change hydrated %d stubs, want exactly the %d spelling the new names", got, want)
	}
	if n := restored.RuleFilesChecked(); n != want+1 {
		t.Fatalf("name change re-checked %d files, want the added file plus %d readers", n, want)
	}
	requireIdentical(t, "post-invalidation vs cold", coldAssessor(t, a), restored)
}

func TestDecodeRejectsCorruption(t *testing.T) {
	a, _ := newWarmAssessor(t, 3)
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	raw := store.EncodeSnapshot(st, 3)

	if _, err := store.OpenSnapshot(raw[:len(raw)/2]); err == nil {
		t.Fatal("truncated snapshot opened")
	}
	for _, off := range []int{2, len(raw) / 3, len(raw) - 9} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		if _, err := store.OpenSnapshot(bad); err == nil {
			t.Fatalf("bit flip at %d opened", off)
		}
	}
	bad := append([]byte(nil), raw...)
	putU32Slice(bad, 8, 99) // version field
	if _, err := store.OpenSnapshot(bad); err == nil {
		t.Fatal("future version opened")
	}
}

func putU32Slice(b []byte, off int, v uint32) {
	b[off] = byte(v)
	b[off+1] = byte(v >> 8)
	b[off+2] = byte(v >> 16)
	b[off+3] = byte(v >> 24)
}

// TestReplayedBodyEditsStayWarm replays more body-edit records than the
// index change feed retains entries for, with no rule run in between.
// Body edits move no cross-file fact, so the first run after recovery
// must re-check exactly the replayed files and hydrate no stub.
func TestReplayedBodyEditsStayWarm(t *testing.T) {
	a, _ := newWarmAssessor(t, 26262)
	const files, funcs = 4, 40
	probe := func(k, round int) *srcfile.File {
		var sb strings.Builder
		for i := 0; i < funcs; i++ {
			fmt.Fprintf(&sb, "int BodyProbe%d_%d(int x) { return x + %d; }\n", k, i, round)
		}
		return &srcfile.File{Path: fmt.Sprintf("control/zz_body_probe_%d.cc", k), Src: sb.String()}
	}
	var add core.Delta
	for k := 0; k < files; k++ {
		add.Changed = append(add.Changed, probe(k, 0))
	}
	if _, err := a.ApplyDelta(add); err != nil {
		t.Fatal(err)
	}
	a.Findings()

	d, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatal(err)
	}
	a.SetCommitHook(cs.Append)
	// Every function of an edited file gets a new record, so each record
	// re-resolves funcs names; the rounds cover more than the feed bound.
	rounds := artifact.FeedRetention/(files*funcs) + 1
	for r := 1; r <= rounds; r++ {
		for k := 0; k < files; k++ {
			if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{probe(k, r)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	cs2, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	rec, info, err := cs2.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != rounds*files {
		t.Fatalf("recover info = %+v, want %d replayed", info, rounds*files)
	}
	stubs := rec.StubUnits()
	if want := rec.FileSet().Len() - files; stubs != want {
		t.Fatalf("replay left %d stubs, want %d", stubs, want)
	}
	requireIdentical(t, "replayed", a, rec)
	if n := rec.RuleFilesChecked(); n != files {
		t.Fatalf("first run after replay re-checked %d files, want the %d replayed", n, files)
	}
	if n := rec.StubUnits(); n != stubs {
		t.Fatalf("first run after replay hydrated %d stubs, want 0", stubs-n)
	}
	requireIdentical(t, "replayed vs cold", coldAssessor(t, a), rec)
}

func TestJournalReplayAndTornTail(t *testing.T) {
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}

	a, gen := newWarmAssessor(t, 11)
	if _, err := cs.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatal(err)
	}
	a.SetCommitHook(cs.Append)

	// Journal three deltas against the live assessor.
	var lastGood, beforeLast []byte
	for i := 0; i < 3; i++ {
		mut := gen.Mutate()
		d := core.Delta{}
		if mut.Kind == corpusgen.MutRemove {
			d.Removed = []string{mut.Path}
		} else {
			d.Changed = []*srcfile.File{{Path: mut.Path, Src: mut.Src}}
		}
		if _, err := a.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		beforeLast = lastGood
		lastGood = canonical(t, a.Findings())
	}
	if cs.JournalRecords() != 3 {
		t.Fatalf("journal holds %d records, want 3", cs.JournalRecords())
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// Full replay reproduces the live state.
	cs2, _ := d.Corpus("c1")
	rec, info, err := cs2.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.Replayed != 3 || info.Torn || info.Clean {
		t.Fatalf("recover info = %+v, want 3 replayed, not torn, not clean", info)
	}
	requireIdentical(t, "full replay", a, rec)
	if err := cs2.Close(); err != nil {
		t.Fatal(err)
	}

	// Torn tail: chop bytes off the last record; recovery lands on the
	// state after the first two deltas and truncates the tail.
	jpath := filepath.Join(dir, "c1", "journal")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	cs3, _ := d.Corpus("c1")
	rec3, info3, err := cs3.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !info3.Torn || info3.Replayed != 2 {
		t.Fatalf("torn recover info = %+v, want torn with 2 replayed", info3)
	}
	if got := canonical(t, rec3.Findings()); !bytes.Equal(got, beforeLast) {
		t.Fatalf("torn-tail recovery diverges from the state at the last good record")
	}
	// The torn bytes are gone: appending works and a further recovery
	// sees exactly the two good records plus the new one.
	if err := cs3.Append(nil, []string{"nonexistent/zz.cc"}); err != nil {
		t.Fatal(err)
	}
	if cs3.JournalRecords() != 3 {
		t.Fatalf("after truncation+append journal holds %d records, want 3", cs3.JournalRecords())
	}
	if err := cs3.Close(); err != nil {
		t.Fatal(err)
	}

	// Garbage appended beyond the valid tail is likewise dropped.
	raw, _ = os.ReadFile(jpath)
	if err := os.WriteFile(jpath, append(raw, 0xde, 0xad, 0xbe), 0o644); err != nil {
		t.Fatal(err)
	}
	cs4, _ := d.Corpus("c1")
	if _, info4, err := cs4.Recover(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	} else if !info4.Torn || info4.Replayed != 3 {
		t.Fatalf("garbage-tail recover info = %+v, want torn with 3 replayed", info4)
	}
	cs4.Close()
}

func mustExport(t *testing.T, a *core.Assessor) *core.PersistedState {
	t.Helper()
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCompactionAndCleanMarker(t *testing.T) {
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{MaxJournalRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	a, gen := newWarmAssessor(t, 5)
	if _, err := cs.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatal(err)
	}
	a.SetCommitHook(cs.Append)

	mutate := func() {
		mut := gen.Mutate()
		d := core.Delta{}
		if mut.Kind == corpusgen.MutRemove {
			d.Removed = []string{mut.Path}
		} else {
			d.Changed = []*srcfile.File{{Path: mut.Path, Src: mut.Src}}
		}
		if _, err := a.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	mutate()
	if cs.ShouldCompact() {
		t.Fatal("compaction triggered below the record threshold")
	}
	mutate()
	if !cs.ShouldCompact() {
		t.Fatal("compaction did not trigger at the record threshold")
	}
	if _, err := cs.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatal(err)
	}
	if cs.JournalRecords() != 0 || cs.ShouldCompact() {
		t.Fatalf("snapshot did not absorb the journal: %d records", cs.JournalRecords())
	}

	// Clean shutdown: compact (already empty), mark, close. The next
	// boot replays nothing and sees the marker — then consumes it.
	if err := cs.MarkClean(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	cs2, _ := d.Corpus("c1")
	rec, info, err := cs2.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Clean || info.Replayed != 0 || info.Torn {
		t.Fatalf("clean boot info = %+v, want clean with 0 replayed", info)
	}
	requireIdentical(t, "clean boot", a, rec)
	cs2.Close()

	// The marker certifies exactly one boot.
	cs3, _ := d.Corpus("c1")
	if _, info3, err := cs3.Recover(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	} else if info3.Clean {
		t.Fatal("clean marker survived a boot")
	}
	cs3.Close()
}

// TestTornJournalHeaderTolerated pins the first-write crash case: a
// journal shorter than its 8-byte magic provably holds no complete
// record, so recovery must treat it as a torn write (boot from the
// snapshot alone, rewrite the header) rather than refuse as corrupt.
func TestTornJournalHeaderTolerated(t *testing.T) {
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := newWarmAssessor(t, 17)
	if _, err := cs.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "c1", "journal")
	if err := os.WriteFile(jpath, []byte("ADJR"), 0o644); err != nil {
		t.Fatal(err)
	}
	cs2, _ := d.Corpus("c1")
	rec, info, err := cs2.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatalf("torn journal header refused recovery: %v", err)
	}
	if !info.Torn || info.Replayed != 0 {
		t.Fatalf("recover info = %+v, want torn with 0 replayed", info)
	}
	requireIdentical(t, "torn-header boot", a, rec)
	// The header was rewritten: appends work and replay again.
	if err := cs2.Append([]*srcfile.File{{Path: "perception/new.cc", Src: "int g_th;\n"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := cs2.Close(); err != nil {
		t.Fatal(err)
	}
	cs3, _ := d.Corpus("c1")
	if _, info3, err := cs3.Recover(core.DefaultConfig()); err != nil {
		t.Fatal(err)
	} else if info3.Replayed != 1 || info3.Torn {
		t.Fatalf("post-rewrite recover info = %+v, want 1 replayed", info3)
	}
	cs3.Close()
}

// TestStaleGenerationRecordsSkipped pins the generation guard: a crash
// (or I/O failure) between a snapshot rename and the journal truncation
// leaves records from the superseded generation in the journal, and
// recovery must skip them instead of replaying them onto state they do
// not describe.
func TestStaleGenerationRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	a, gen := newWarmAssessor(t, 13)
	if _, err := cs.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatal(err)
	}
	a.SetCommitHook(cs.Append)
	for i := 0; i < 2; i++ {
		mut := gen.Mutate()
		del := core.Delta{}
		if mut.Kind == corpusgen.MutRemove {
			del.Removed = []string{mut.Path}
		} else {
			del.Changed = []*srcfile.File{{Path: mut.Path, Src: mut.Src}}
		}
		if _, err := a.ApplyDelta(del); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the torn compaction: stash the journal, write a fresh
	// snapshot (absorbing+resetting the journal), then put the old
	// journal — two records stamped with the superseded generation —
	// back as if the truncation never hit the disk.
	jpath := filepath.Join(dir, "c1", "journal")
	oldJournal, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cs2, _ := d.Corpus("c1")
	if _, err := cs2.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, oldJournal, 0o644); err != nil {
		t.Fatal(err)
	}

	cs3, _ := d.Corpus("c1")
	rec, info, err := cs3.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cs3.Close()
	if info.Stale != 2 || info.Replayed != 0 {
		t.Fatalf("recover info = %+v, want 2 stale / 0 replayed", info)
	}
	requireIdentical(t, "stale-journal recovery", a, rec)
}

// TestCommitHookContract pins the write-ahead hook semantics: a hook
// failure aborts the commit untouched and is classified retryable
// (core.ErrCommitHook), and all-unchanged no-op deltas never reach the
// hook (no empty journal records, no fsync per retry).
func TestCommitHookContract(t *testing.T) {
	a, gen := newWarmAssessor(t, 9)
	before := canonical(t, a.Findings())

	calls := 0
	a.SetCommitHook(func(changed []*srcfile.File, removed []string) error {
		calls++
		return fmt.Errorf("disk on fire")
	})
	victim := gen.Paths()[0]
	_, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
		Path: victim, Src: gen.Source(victim) + "\n// edit\n"}}})
	if err == nil {
		t.Fatal("commit succeeded despite a failing hook")
	}
	if !errors.Is(err, core.ErrCommitHook) {
		t.Fatalf("hook failure not classified as ErrCommitHook: %v", err)
	}
	if calls != 1 {
		t.Fatalf("hook fired %d times, want 1", calls)
	}
	if got := canonical(t, a.Findings()); !bytes.Equal(before, got) {
		t.Fatal("failed commit mutated assessor state")
	}

	// A delta whose content matches the corpus is a no-op: commit
	// proceeds (the hook would fail) and nothing is journaled.
	res, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{
		Path: victim, Src: gen.Source(victim)}}})
	if err != nil {
		t.Fatalf("no-op delta failed: %v", err)
	}
	if res.Unchanged != 1 || calls != 1 {
		t.Fatalf("no-op delta reached the hook (res %+v, calls %d)", res, calls)
	}
}

func TestCorpusNameValidation(t *testing.T) {
	d, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".", "..", ".hidden", "a/b", "a b", "x\x00y"} {
		if _, err := d.Corpus(bad); err == nil {
			t.Errorf("corpus name %q accepted", bad)
		}
	}
	for _, good := range []string{"default", "adfuzz", "c-1", "A.b_c"} {
		if _, err := d.Corpus(good); err != nil {
			t.Errorf("corpus name %q rejected: %v", good, err)
		}
	}
}

// withSignatureSlots rewrites a snapshot's shard directory so every
// shard's signature slot is present and non-zero — the layout writers
// produced while per-shard export/graph signatures existed — and
// re-frames the section with a fresh checksum.
func withSignatureSlots(t *testing.T, raw []byte) []byte {
	t.Helper()
	out := append([]byte(nil), raw[:12]...)
	for off := 12; off < len(raw); {
		tag := raw[off]
		n := int(binary.LittleEndian.Uint32(raw[off+1:]))
		payload := raw[off+5 : off+5+n]
		off += 5 + n + 4
		if tag == 'D' {
			var d []byte
			p := payload
			uv := func() uint64 {
				v, k := binary.Uvarint(p)
				if k <= 0 {
					t.Fatal("directory varint does not decode")
				}
				p = p[k:]
				d = binary.AppendUvarint(d, v)
				return v
			}
			shards := uv()
			for i := uint64(0); i < shards; i++ {
				name := uv()
				d = append(d, p[:name]...)
				p = p[name:]
				uv() // files
				if p[0] != 0 {
					t.Fatal("writer marked a signature slot present")
				}
				v1, k1 := binary.Uvarint(p[1:])
				v2, k2 := binary.Uvarint(p[1+k1:])
				if v1 != 0 || v2 != 0 {
					t.Fatal("writer left a non-zero signature in an absent slot")
				}
				p = p[1+k1+k2:]
				d = append(d, 1)
				d = binary.AppendUvarint(d, 0x9e3779b97f4a7c15+i)
				d = binary.AppendUvarint(d, 0xc2b2ae3d27d4eb4f^i)
				for k := 0; k < 6; k++ {
					uv() // block extents
				}
			}
			uv()
			uv() // corpus extent
			payload = d
		}
		var hdr [5]byte
		hdr[0] = tag
		binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
		out = append(out, hdr[:]...)
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	return out
}

// TestSnapshotSignatureSlotCompatible pins snapshot v2 compatibility
// across the retirement of shard signatures: writers mark every slot
// absent with zeros, and a snapshot whose slots carry signatures (as
// older writers produced) still opens and restores to identical state.
func TestSnapshotSignatureSlotCompatible(t *testing.T) {
	a, _ := newWarmAssessor(t, 26262)
	st, err := a.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	raw := withSignatureSlots(t, store.EncodeSnapshot(st, 5))
	snap, err := store.OpenSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreAssessorFrom(core.DefaultConfig(), snap)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "restored from signed slots", a, restored)
}
