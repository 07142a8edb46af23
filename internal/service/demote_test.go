package service_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/service"
)

// TestReplayedBootDemotesUnderReadLock boots over a journal holding two
// records, whose replay runs their files through the per-file step and
// commits them as stubs, and races reads under the corpus read lock
// against deltas, whose prepares run the same step on pooled loaders
// under the same read lock. The final report must equal a fresh
// assessment of the final files.
func TestReplayedBootDemotesUnderReadLock(t *testing.T) {
	dir := t.TempDir()
	ts1, _, _ := newPersistentServer(t, dir)
	files := smallCorpus()
	files["o/d.c"] = "int fd(int v) { return v * 2; }\n"
	if code, body := postJSON(t, ts1.URL+"/assess", service.AssessRequest{Corpus: "c1", Files: files}, nil); code != http.StatusOK {
		t.Fatalf("assess: %d %s", code, body)
	}
	replayed := map[string]string{
		"m/a.c": "int ga;\nint fa(int x) { return x + 3; }\n",
		"n/c.c": "void fc(void) { fb(4); fd(5); }\n",
	}
	for p, src := range replayed {
		if code, body := postJSON(t, ts1.URL+"/delta", service.DeltaRequest{Corpus: "c1", Changed: map[string]string{p: src}}, nil); code != http.StatusOK {
			t.Fatalf("delta %s: %d %s", p, code, body)
		}
		files[p] = src
	}
	ts1.Close() // crash: the edits survive only in the journal

	ts2, svc2, restored := newPersistentServer(t, dir)
	defer svc2.Close()
	if len(restored) != 1 || restored[0].Replayed != len(replayed) {
		t.Fatalf("restored = %+v, want c1 with %d replayed records", restored, len(replayed))
	}
	edits := map[string]string{
		"m/b.c": "int fb(int x) { while (x > 1) { x -= 2; } return x; }\n",
		"o/d.c": "int fd(int v) { if (v) { return v; } return 1; }\n",
	}
	get := func(path string) {
		resp, err := http.Get(ts2.URL + path)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Error(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get("/report?corpus=c1")
			get("/findings?corpus=c1")
		}()
	}
	for p, src := range edits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			raw, err := json.Marshal(service.DeltaRequest{Corpus: "c1", Changed: map[string]string{p: src}})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts2.URL+"/delta", "application/json", bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Error(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("delta %s = %d", p, resp.StatusCode)
			}
		}()
		files[p] = src
	}
	wg.Wait()

	fresh := httptest.NewServer(service.New().Handler())
	defer fresh.Close()
	if code, body := postJSON(t, fresh.URL+"/assess", service.AssessRequest{Corpus: "c1", Files: files}, nil); code != http.StatusOK {
		t.Fatalf("fresh assess: %d %s", code, body)
	}
	_, want := getJSON(t, fresh.URL+"/report?corpus=c1", nil)
	if _, got := getJSON(t, ts2.URL+"/report?corpus=c1", nil); got != want {
		t.Fatalf("report after concurrent reads and deltas diverges from a fresh assessment:\nwant %.300s\ngot  %.300s", want, got)
	}
}
