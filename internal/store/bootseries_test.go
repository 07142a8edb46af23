package store_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/service"
	"repro/internal/store"
)

// TestBootCountsRecomputedBlocks boots a server over a snapshot with one
// cut finding block and one cut metrics block, cut as in
// TestUndecodableShardIsEncoded, and checks adserve's pre-registered
// recovery series in /statz against what the boot reported: two blocks
// recomputed, no stale records, no torn tail.
func TestBootCountsRecomputedBlocks(t *testing.T) {
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
	dirents := snap.Directory()
	dirents[1].Findings.Len--
	dirents[2].Metrics.Len--
	if err := os.WriteFile(path, withDirectory(t, raw, dirents, snap.CorpusExtent()), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, restored, err := service.NewWithStore(d)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if len(restored) != 1 || restored[0].Recomputed != 2 {
		t.Fatalf("restored = %+v, want c1 with 2 recomputed blocks", restored)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	r, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var statz service.StatzResponse
	if err := json.NewDecoder(r.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]int64)
	for _, m := range statz.Metrics {
		series[m.Name] += m.Value
	}
	for name, want := range map[string]int64{
		"adserve_snapshot_blocks_recomputed_total": int64(restored[0].Recomputed),
		"adserve_journal_records_stale_total":      int64(restored[0].Stale),
		"adserve_journal_torn_tails_total":         0,
	} {
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %d (registered %v), want %d as the boot reported", name, got, ok, want)
		}
	}
}
