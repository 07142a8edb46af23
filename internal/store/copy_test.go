package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/obs"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// writeCounts reads the snapshot-write counters attached to a store.
type writeCounts struct {
	m *store.JournalMetrics
}

func newWriteCounts(cs *store.CorpusStore) *writeCounts {
	reg := obs.NewRegistry()
	m := &store.JournalMetrics{
		Compactions:        reg.Counter("compactions", ""),
		CompactionFailures: reg.Counter("compaction_failures", ""),
		ShardsCopied:       reg.Counter("shards_copied", ""),
		ShardsEncoded:      reg.Counter("shards_encoded", ""),
	}
	cs.SetMetrics(m)
	return &writeCounts{m: m}
}

func (w *writeCounts) get() (copied, encoded int64) {
	return w.m.ShardsCopied.Value(), w.m.ShardsEncoded.Value()
}

// compactAndCompare writes the assessor's state through WriteSnapshot
// and requires the installed file to equal a cold assessor's encode of
// the same sources at the same generation tag, with exactly the given
// numbers of shards copied and encoded by this write.
func compactAndCompare(t *testing.T, what string, cs *store.CorpusStore, dir string, w *writeCounts, a *core.Assessor, wantCopied, wantEncoded int64) {
	t.Helper()
	c0, e0 := w.get()
	if _, err := cs.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	c1, e1 := w.get()
	if c1-c0 != wantCopied || e1-e0 != wantEncoded {
		t.Fatalf("%s: copied %d and encoded %d shards, want %d and %d", what, c1-c0, e1-e0, wantCopied, wantEncoded)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.OpenSnapshot(raw)
	if err != nil {
		t.Fatalf("%s: written snapshot does not open: %v", what, err)
	}
	cold := coldAssessor(t, a)
	if want := store.EncodeSnapshot(mustExport(t, cold), snap.Gen()); !bytes.Equal(raw, want) {
		t.Fatalf("%s: written snapshot (%d bytes) differs from a cold encode (%d bytes)", what, len(raw), len(want))
	}
	requireIdentical(t, what, cold, a)
}

// TestSnapshotWriteCopiesUntouchedShards restores a cross-file corpus
// and applies one delta of each class, compacting after each: the
// written snapshot must equal a cold encode byte for byte, and exactly
// the shards no delta touched since the restore are copied.
func TestSnapshotWriteCopiesUntouchedShards(t *testing.T) {
	gen := corpusgen.New(corpusgen.Params{Modules: 6, FilesPerModule: 3, FuncsPerFile: 2,
		ViolationsPerFile: 2, CUDAFiles: 1, CrossFile: true}, 26262)
	for i := 0; i < 12; i++ {
		gen.Mutate()
	}
	probes := map[string]string{
		"planning/zz_copy_lib.cc":    "int ZzCopyLib(int v) {\n  return v + 1;\n}\n",
		"control/zz_copy_user.cc":    "void ZzCopyUser(int v) {\n  ZzCopyLib(v);\n}\n",
		"perception/zz_copy_solo.cc": "int ZzCopySolo(int v) {\n  return v;\n}\n",
		"prediction/zz_copy_gone.cc": "int ZzCopyGone(int v) {\n  return v;\n}\n",
	}
	fs := gen.FileSet()
	for _, p := range []string{"planning/zz_copy_lib.cc", "control/zz_copy_user.cc",
		"perception/zz_copy_solo.cc", "prediction/zz_copy_gone.cc"} {
		fs.Add(&srcfile.File{Path: p, Src: probes[p]})
	}
	a := core.NewAssessor(core.DefaultConfig())
	if err := a.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	w := newWriteCounts(cs)
	shards := int64(len(a.Index().ShardNames()))
	if shards != 6 {
		t.Fatalf("corpus has %d shards, want 6", shards)
	}
	// A cold assessor has nothing to copy.
	compactAndCompare(t, "cold write", cs, filepath.Join(dir, "c1"), w, a, 0, shards)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	cs, err = d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	w = newWriteCounts(cs)
	rec, _, err := cs.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec.SetCommitHook(cs.Append)
	cdir := filepath.Join(dir, "c1")
	compactAndCompare(t, "restored, unchanged", cs, cdir, w, rec, shards, 0)
	compactAndCompare(t, "restored, unchanged, again", cs, cdir, w, rec, shards, 0)

	var many strings.Builder
	for i := 0; i < 130; i++ {
		fmt.Fprintf(&many, "int ZzCopyMany%03d(int v) {\n  return v;\n}\n", i)
	}
	steps := []struct {
		what string
		d    core.Delta
		// rechecked is the number of files the rule engine must re-check,
		// touched the shards touched since the restore after this delta.
		rechecked int
		touched   int64
	}{
		{"body edit", core.Delta{Changed: []*srcfile.File{{Path: "planning/zz_copy_lib.cc",
			Src: "int ZzCopyLib(int v) {\n  return v + 2;\n}\n"}}}, 1, 1},
		{"rename", core.Delta{Changed: []*srcfile.File{{Path: "perception/zz_copy_solo.cc",
			Src: "int ZzCopySoloB(int v) {\n  return v;\n}\n"}}}, 1, 2},
		{"add", core.Delta{Changed: []*srcfile.File{{Path: "localization/zz_copy_added.cc",
			Src: "int ZzCopyAdded(int v) {\n  return v * 2;\n}\n"}}}, 1, 3},
		{"remove", core.Delta{Removed: []string{"prediction/zz_copy_gone.cc"}}, 0, 4},
		// ZzCopyLib's only caller lives in control: its file is re-checked
		// there, so control's rule segment is rebuilt while its metric rows
		// stay sealed — sealed in one cache only is not copied.
		{"cross-file rename", core.Delta{Changed: []*srcfile.File{{Path: "planning/zz_copy_lib.cc",
			Src: "int ZzCopyLibR(int v) {\n  return v + 2;\n}\n"}}}, 2, 5},
		// 130 changed names exceed the scan bound: every file is
		// re-checked and no shard stays sealed.
		{"more than 128 names", core.Delta{Changed: []*srcfile.File{{Path: "planning/zz_copy_many.cc",
			Src: many.String()}}}, -1, shards},
	}
	for _, s := range steps {
		if _, err := rec.ApplyDelta(s.d); err != nil {
			t.Fatalf("%s: %v", s.what, err)
		}
		rec.Findings()
		want := s.rechecked
		if want < 0 {
			want = rec.FileSet().Len()
		}
		if n := rec.RuleFilesChecked(); n != want {
			t.Fatalf("%s: re-checked %d files, want %d", s.what, n, want)
		}
		compactAndCompare(t, s.what, cs, cdir, w, rec, shards-s.touched, s.touched)
		if s.what == "body edit" {
			compactAndCompare(t, "body edit, second compaction", cs, cdir, w, rec, shards-s.touched, s.touched)
		}
	}
}

// TestUndecodableShardIsEncoded restores from a snapshot where one
// shard's finding block and another shard's metrics block will not
// decode (the checksums are intact): the rule engine recomputes the
// first shard and the metrics cache the second, each leaving the other
// cache sealed, so the next write encodes both instead of copying a
// broken block, and copies every other shard.
func TestUndecodableShardIsEncoded(t *testing.T) {
	a, _ := newWarmAssessor(t, 11)
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{})
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
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c1", "snapshot")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.OpenSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last byte off the second shard's finding block and off the
	// third shard's metrics block.
	dirents := snap.Directory()
	dirents[1].Findings.Len--
	dirents[2].Metrics.Len--
	raw = withDirectory(t, raw, dirents, snap.CorpusExtent())
	bad, err := store.OpenSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	st, err := bad.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards[1].Findings != nil {
		t.Fatal("the cut finding block still decodes")
	}
	if st.Shards[2].Rows != nil {
		t.Fatal("the cut metrics block still decodes")
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	cs, err = d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	w := newWriteCounts(cs)
	rec, info, err := cs.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.Recomputed != 2 {
		t.Fatalf("restore counted %d recomputed snapshot blocks, want 2", info.Recomputed)
	}
	shards := int64(len(dirents))
	compactAndCompare(t, "after failed block decodes", cs, filepath.Join(dir, "c1"), w, rec, shards-2, 2)
}

// TestZeroFileShardFailsClosed restores from a snapshot whose directory
// lists a shard holding no files (the checksums are intact): no unit can
// form that shard, so both recovery paths must fail with an error
// instead of restoring or panicking.
func TestZeroFileShardFailsClosed(t *testing.T) {
	a, _ := newWarmAssessor(t, 11)
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{})
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
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c1", "snapshot")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.OpenSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	dirents := append(snap.Directory(), store.SnapShard{Module: "zz_empty"})
	if err := os.WriteFile(path, withDirectory(t, raw, dirents, snap.CorpusExtent()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, readOnly := range []bool{true, false} {
		cs, err := d.Corpus("c1")
		if err != nil {
			t.Fatal(err)
		}
		restore := cs.Recover
		if readOnly {
			restore = cs.RecoverReadOnly
		}
		if _, _, err := restore(core.DefaultConfig()); err == nil {
			t.Fatalf("read-only %v: a snapshot with a zero-file shard restored", readOnly)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// withDirectory replaces a snapshot's shard directory with dirents and
// the corpus extent, re-framing the D section with a fresh checksum.
func withDirectory(t *testing.T, raw []byte, dirents []store.SnapShard, corpus store.Extent) []byte {
	t.Helper()
	var dsec []byte
	put := func(v int) { dsec = binary.AppendUvarint(dsec, uint64(v)) }
	put(len(dirents))
	for _, sh := range dirents {
		put(len(sh.Module))
		dsec = append(dsec, sh.Module...)
		put(sh.Files)
		dsec = append(dsec, 0, 0, 0) // absent signature slot
		for _, e := range []store.Extent{sh.Units, sh.Findings, sh.Metrics} {
			put(e.Off)
			put(e.Len)
		}
	}
	put(corpus.Off)
	put(corpus.Len)
	out := append([]byte(nil), raw[:12]...)
	for off := 12; off < len(raw); {
		tag := raw[off]
		n := int(binary.LittleEndian.Uint32(raw[off+1:]))
		payload := raw[off+5 : off+5+n]
		off += 5 + n + 4
		if tag == 'D' {
			payload = dsec
		}
		out = append(out, tag)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(payload)))
		out = append(out, payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	}
	return out
}
