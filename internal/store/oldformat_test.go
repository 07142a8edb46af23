package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

// TestRestoresVersion2Snapshot boots a data directory holding
// testdata/v2.snap, a snapshot of four files in three shards written by
// the version-2 encoder. Its finding blocks hold no conditioned
// findings, so the boot recomputes every shard's, parsing their files,
// and answers as a cold load of the same files does. The first write
// then copies no shard and writes version 3, which boots with nothing
// recomputed. Version 1 stays refused.
func TestRestoresVersion2Snapshot(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.OpenSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	shards := len(snap.Directory())
	if shards != 3 {
		t.Fatalf("testdata/v2.snap has %d shards, want 3", shards)
	}

	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("c")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "c", "snapshot")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w := newWriteCounts(cs)
	a, info, err := cs.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.Recomputed != shards || a.RecomputedBlocks() != shards {
		t.Fatalf("version-2 boot recomputed %d blocks (assessor: %d), want every shard's finding block, %d",
			info.Recomputed, a.RecomputedBlocks(), shards)
	}
	requireIdentical(t, "version-2 boot vs cold", coldAssessor(t, a), a)

	if _, err := cs.WriteSnapshot(mustExport(t, a)); err != nil {
		t.Fatal(err)
	}
	if copied, encoded := w.get(); copied != 0 || encoded != int64(shards) {
		t.Fatalf("first write copied %d shards and encoded %d, want 0 and %d", copied, encoded, shards)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if v := v3[8]; v != 3 {
		t.Fatalf("first write is version %d, want 3", v)
	}
	cs, err = d.Corpus("c")
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	again, info, err := cs.Recover(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if info.Recomputed != 0 {
		t.Fatalf("version-3 boot recomputed %d blocks, want 0", info.Recomputed)
	}
	requireIdentical(t, "version-3 boot vs cold", coldAssessor(t, again), again)

	v1 := bytes.Clone(raw)
	putU32Slice(v1, 8, 1)
	if _, err := store.OpenSnapshot(v1); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("version-1 snapshot opened: %v", err)
	}
}
