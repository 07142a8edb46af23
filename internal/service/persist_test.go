package service_test

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// newPersistentServer boots a store-backed service over dir and returns
// the test server, the service (for Close), and the restore report.
func newPersistentServer(t *testing.T, dir string) (*httptest.Server, *service.Server, []service.RestoredCorpus) {
	t.Helper()
	d, err := store.Open(dir, store.Options{MaxJournalRecords: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc, restored, err := service.NewWithStore(d)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts, svc, restored
}

// TestPersistenceAcrossRestarts is the service-level recovery loop:
// assess, delta (journaled before ack), kill the server object, boot a
// fresh one over the same directory, and require the identical report.
func TestPersistenceAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	ts1, svc1, restored := newPersistentServer(t, dir)
	if len(restored) != 0 {
		t.Fatalf("fresh data dir restored %v", restored)
	}

	if code, body := postJSON(t, ts1.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatalf("assess: %d %s", code, body)
	}
	var dresp service.DeltaResponse
	if code, body := postJSON(t, ts1.URL+"/delta", service.DeltaRequest{
		Corpus:  "c1",
		Changed: map[string]string{"m/a.c": "int ga;\nint fa(int x) { return x; }\n"},
	}, &dresp); code != http.StatusOK {
		t.Fatalf("delta: %d %s", code, body)
	}
	if dresp.Journal == nil || dresp.Journal.Records != 1 {
		t.Fatalf("delta response journal = %+v, want 1 record", dresp.Journal)
	}
	_, report1 := getJSON(t, ts1.URL+"/report?corpus=c1", nil)
	// Simulated crash: no Close, no snapshot of the delta — recovery
	// must come from the initial snapshot plus the journal.
	ts1.Close()

	ts2, svc2, restored2 := newPersistentServer(t, dir)
	if len(restored2) != 1 || restored2[0].Name != "c1" || restored2[0].Replayed != 1 ||
		restored2[0].Clean || restored2[0].Torn {
		t.Fatalf("restored = %+v, want c1 with 1 replayed record", restored2)
	}
	_, report2 := getJSON(t, ts2.URL+"/report?corpus=c1", nil)
	if report1 != report2 {
		t.Fatalf("restored report diverges:\nbefore %.200s\nafter  %.200s", report1, report2)
	}

	// Clean shutdown drains to a fresh snapshot + marker; the next boot
	// replays nothing.
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	_, svc3, restored3 := newPersistentServer(t, dir)
	if len(restored3) != 1 || !restored3[0].Clean || restored3[0].Replayed != 0 {
		t.Fatalf("post-clean-shutdown restore = %+v, want clean with 0 replayed", restored3)
	}
	svc3.Close()
	_ = svc1
}

// TestSnapshotEndpointCompacts pins POST /snapshot: the journal is
// absorbed and a crash right after loses nothing.
func TestSnapshotEndpointCompacts(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := newPersistentServer(t, dir)
	if code, body := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatalf("assess: %d %s", code, body)
	}
	postJSON(t, ts.URL+"/delta", service.DeltaRequest{
		Corpus: "c1", Changed: map[string]string{"m/new.c": "int fnew(void) { return 2; }\n"}}, nil)

	var sresp service.SnapshotResponse
	if code, body := postJSON(t, ts.URL+"/snapshot", service.SnapshotRequest{Corpus: "c1"}, &sresp); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if sresp.Files != 4 || sresp.SnapshotBytes <= 0 {
		t.Fatalf("snapshot response = %+v", sresp)
	}
	_, report1 := getJSON(t, ts.URL+"/report?corpus=c1", nil)
	ts.Close() // crash

	ts2, svc2, restored := newPersistentServer(t, dir)
	if len(restored) != 1 || restored[0].Replayed != 0 {
		t.Fatalf("restore after /snapshot = %+v, want 0 replayed", restored)
	}
	_, report2 := getJSON(t, ts2.URL+"/report?corpus=c1", nil)
	if report1 != report2 {
		t.Fatal("report diverges after /snapshot-backed restore")
	}
	svc2.Close()

	// /snapshot on unknown corpora and in-memory servers is an error.
	if code, _ := postJSON(t, ts2.URL+"/snapshot", service.SnapshotRequest{Corpus: "nope"}, nil); code != http.StatusNotFound {
		t.Fatalf("snapshot of unknown corpus: %d, want 404", code)
	}
	mem := httptest.NewServer(service.New().Handler())
	defer mem.Close()
	if code, _ := postJSON(t, mem.URL+"/snapshot", service.SnapshotRequest{Corpus: "c1"}, nil); code != http.StatusBadRequest {
		t.Fatalf("snapshot on in-memory server: %d, want 400", code)
	}
}

// TestDeltaTriggersCompaction drives the journal past its record
// threshold and expects the service to absorb it into a snapshot.
func TestDeltaTriggersCompaction(t *testing.T) {
	dir := t.TempDir()
	ts, svc, _ := newPersistentServer(t, dir) // MaxJournalRecords: 3
	if code, body := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatalf("assess: %d %s", code, body)
	}
	var last service.DeltaResponse
	for i := 0; i < 3; i++ {
		src := "int fa(int x) { return x + " + string(rune('0'+i)) + "; }\n"
		if code, body := postJSON(t, ts.URL+"/delta", service.DeltaRequest{
			Corpus: "c1", Changed: map[string]string{"m/a.c": src}}, &last); code != http.StatusOK {
			t.Fatalf("delta %d: %d %s", i, code, body)
		}
	}
	if !last.Journal.Compacted || last.Journal.Records != 0 {
		t.Fatalf("third delta journal = %+v, want compacted with 0 records", last.Journal)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotWriteSeries pins the snapshot-write series against what
// the client did: a snapshot after one edit to a restored corpus copies
// every shard but the edited one, and a compaction whose temp file
// cannot be created is acknowledged uncompacted and counted as a
// failure.
func TestSnapshotWriteSeries(t *testing.T) {
	dir := t.TempDir()
	files := smallCorpus()
	files["o/d.c"] = "int fd(int x) { return x * 2; }\n"
	files["p/e.c"] = "int fe(int x) { return x - 1; }\n"
	ts1, svc1, _ := newPersistentServer(t, dir) // MaxJournalRecords: 3
	if code, body := postJSON(t, ts1.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: files}, nil); code != http.StatusOK {
		t.Fatalf("assess: %d %s", code, body)
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	ts, svc, restored := newPersistentServer(t, dir)
	defer svc.Close()
	if len(restored) != 1 {
		t.Fatalf("restored = %+v, want c1", restored)
	}
	series := func() (copied, encoded, compactions, failures int64) {
		return statzCounter(t, ts.URL, "adserve_snapshot_shards_copied_total", nil),
			statzCounter(t, ts.URL, "adserve_snapshot_shards_encoded_total", nil),
			statzCounter(t, ts.URL, "adserve_compactions_total", nil),
			statzCounter(t, ts.URL, "adserve_compaction_failures_total", nil)
	}
	delta := func(i int) service.DeltaResponse {
		t.Helper()
		var resp service.DeltaResponse
		src := "int fa(int x) { return x + " + string(rune('0'+i)) + "; }\n"
		if code, body := postJSON(t, ts.URL+"/delta", service.DeltaRequest{
			Corpus: "c1", Changed: map[string]string{"m/a.c": src}}, &resp); code != http.StatusOK {
			t.Fatalf("delta %d: %d %s", i, code, body)
		}
		return resp
	}
	delta(0)
	if code, body := postJSON(t, ts.URL+"/snapshot", service.SnapshotRequest{Corpus: "c1"}, nil); code != http.StatusOK {
		t.Fatalf("snapshot: %d %s", code, body)
	}
	if c, e, n, f := series(); c != 3 || e != 1 || n != 1 || f != 0 {
		t.Fatalf("after /snapshot: copied %d, encoded %d, compactions %d, failures %d; want 3, 1, 1, 0", c, e, n, f)
	}

	// A directory where the temp file goes makes its open fail (for root
	// too); the third delta trips the record threshold.
	if err := os.Mkdir(filepath.Join(dir, "c1", "snapshot.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	delta(1)
	delta(2)
	if last := delta(3); last.Journal == nil || last.Journal.Compacted || last.Journal.Records != 3 {
		t.Fatalf("threshold delta journal = %+v, want uncompacted with 3 records", last.Journal)
	}
	if c, e, n, f := series(); c != 3 || e != 1 || n != 1 || f != 1 {
		t.Fatalf("after the failed compaction: copied %d, encoded %d, compactions %d, failures %d; want 3, 1, 1, 1", c, e, n, f)
	}
	if err := os.Remove(filepath.Join(dir, "c1", "snapshot.tmp")); err != nil {
		t.Fatal(err)
	}
}

// TestStorableCorpusNames pins the persistent-server name restriction.
func TestStorableCorpusNames(t *testing.T) {
	ts, svc, _ := newPersistentServer(t, t.TempDir())
	defer svc.Close()
	if code, body := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "../escape", Files: smallCorpus()}, nil); code != http.StatusBadRequest {
		t.Fatalf("traversal corpus name: %d %s, want 400", code, body)
	}
}

// TestContentTypeAndGzip pins Content-Type on every endpoint and gzip
// negotiation on the bulk read endpoints.
func TestContentTypeAndGzip(t *testing.T) {
	ts := newTestServer(t)
	if code, body := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatalf("assess: %d %s", code, body)
	}

	// A transport with DisableCompression neither sends Accept-Encoding
	// nor transparently decodes — it sees the raw negotiation.
	rawClient := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	fetch := func(path, accept string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept-Encoding", accept)
		}
		resp, err := rawClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	for _, path := range []string{"/report?corpus=c1", "/findings?corpus=c1", "/healthz", "/nothing-registered"} {
		resp, _ := fetch(path, "")
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" && resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: Content-Type %q", path, ct)
		}
	}

	for _, path := range []string{"/report?corpus=c1", "/findings?corpus=c1"} {
		plainResp, plain := fetch(path, "")
		if enc := plainResp.Header.Get("Content-Encoding"); enc != "" {
			t.Fatalf("%s without Accept-Encoding got Content-Encoding %q", path, enc)
		}
		if plainResp.ContentLength != int64(len(plain)) {
			t.Fatalf("%s identity response Content-Length %d for a %d-byte body", path, plainResp.ContentLength, len(plain))
		}
		gzResp, gzBody := fetch(path, "gzip")
		if enc := gzResp.Header.Get("Content-Encoding"); enc != "gzip" {
			t.Fatalf("%s with Accept-Encoding: gzip got Content-Encoding %q", path, enc)
		}
		if ct := gzResp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s gzip response Content-Type %q", path, ct)
		}
		if vary := gzResp.Header.Get("Vary"); vary != "Accept-Encoding" {
			t.Fatalf("%s gzip response Vary %q", path, vary)
		}
		zr, err := gzip.NewReader(bytes.NewReader(gzBody))
		if err != nil {
			t.Fatal(err)
		}
		inflated, err := io.ReadAll(zr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inflated, plain) {
			t.Fatalf("%s gzip body inflates to different bytes", path)
		}
		if len(gzBody) >= len(plain) {
			t.Errorf("%s gzip body (%d) not smaller than identity (%d)", path, len(gzBody), len(plain))
		}
		// q=0 opts out.
		offResp, _ := fetch(path, "gzip;q=0")
		if enc := offResp.Header.Get("Content-Encoding"); enc != "" {
			t.Fatalf("%s with gzip;q=0 got Content-Encoding %q", path, enc)
		}
	}
}

// TestJournalSurvivesTornTail simulates a crash mid-append at the
// service level: chop the journal tail, reboot, and expect the state at
// the last complete record.
func TestJournalSurvivesTornTail(t *testing.T) {
	dir := t.TempDir()
	ts, _, _ := newPersistentServer(t, dir)
	if code, body := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatalf("assess: %d %s", code, body)
	}
	postJSON(t, ts.URL+"/delta", service.DeltaRequest{
		Corpus: "c1", Changed: map[string]string{"m/a.c": "int fa(int x) { return 7; }\n"}}, nil)
	_, wantReport := getJSON(t, ts.URL+"/report?corpus=c1", nil)
	postJSON(t, ts.URL+"/delta", service.DeltaRequest{
		Corpus: "c1", Changed: map[string]string{"m/a.c": "int fa(int x) { return 8; }\n"}}, nil)
	ts.Close() // crash without Close

	jpath := filepath.Join(dir, "c1", "journal")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, raw[:len(raw)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	ts2, svc2, restored := newPersistentServer(t, dir)
	defer svc2.Close()
	if len(restored) != 1 || !restored[0].Torn || restored[0].Replayed != 1 {
		t.Fatalf("torn restore = %+v, want torn with 1 replayed", restored)
	}
	_, gotReport := getJSON(t, ts2.URL+"/report?corpus=c1", nil)
	if gotReport != wantReport {
		t.Fatal("torn-tail restore does not match the state at the last complete record")
	}
	if got := statzCounter(t, ts2.URL, "adserve_journal_torn_tails_total", nil); got != 1 {
		t.Errorf("torn-tail series = %d, want 1 as the boot reported", got)
	}
}

// TestBootReportsStaleJournalRecords pins that a boot reports the
// journal records it skipped for a superseded snapshot generation. The
// journal is made stale the way a compaction whose journal reset never
// reached the disk leaves it: two records appended against one
// snapshot, then a newer snapshot, then the old journal put back.
func TestBootReportsStaleJournalRecords(t *testing.T) {
	dir := t.TempDir()
	d, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	files := smallCorpus()
	fs := srcfile.NewFileSet()
	for _, p := range []string{"m/a.c", "m/b.c", "n/c.c"} {
		fs.AddSource(p, files[p])
	}
	a := core.NewAssessor(core.DefaultConfig())
	if err := a.LoadFileSet(fs); err != nil {
		t.Fatal(err)
	}
	snapshot := func(cs *store.CorpusStore) {
		t.Helper()
		st, err := a.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.WriteSnapshot(st); err != nil {
			t.Fatal(err)
		}
	}
	snapshot(cs)
	a.SetCommitHook(cs.Append)
	for i := 0; i < 2; i++ {
		src := fmt.Sprintf("int ga;\nint fa(int x) { return x + %d; }\n", i)
		if _, err := a.ApplyDelta(core.Delta{Changed: []*srcfile.File{{Path: "m/a.c", Src: src}}}); err != nil {
			t.Fatal(err)
		}
	}
	a.SetCommitHook(nil)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "c1", "journal")
	stale, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := d.Corpus("c1")
	if err != nil {
		t.Fatal(err)
	}
	snapshot(cs2)
	if err := os.WriteFile(jpath, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, restored, err := service.NewWithStore(d)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if len(restored) != 1 || restored[0].Stale != 2 || restored[0].Replayed != 0 {
		t.Fatalf("restored = %+v, want c1 with 2 stale and 0 replayed records", restored)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	if got := statzCounter(t, ts.URL, "adserve_journal_records_stale_total", nil); got != int64(restored[0].Stale) {
		t.Errorf("stale-record series = %d, want %d as the boot reported", got, restored[0].Stale)
	}
}
