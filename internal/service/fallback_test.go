package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/store"
)

// TestFallbackSeriesMatchAcks drives a name-changing add, rename, and
// remove through HTTP against a snapshot-restored corpus and checks the
// fallback series against what the client and the assessor observed:
// the re-check histogram holds one observation per ack summing to the
// acks' rule_files_checked, and the hydration counter equals the drop in
// restored stubs (no delta touches a stub's own content, so every drop
// is a hydration).
func TestFallbackSeriesMatchAcks(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		d, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, _, err := NewWithStore(d)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	post := func(ts *httptest.Server, path string, req, resp any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, r.StatusCode)
		}
		if resp != nil {
			if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Boot 1 assesses and snapshots on clean shutdown.
	s1 := open()
	ts1 := httptest.NewServer(s1.Handler())
	post(ts1, "/assess", AssessRequest{Corpus: "c", Files: map[string]string{
		"m/lib.c":    "int helper(int x) { return x + 1; }\n",
		"n/user.c":   "void user(void) { added_fn(1); }\n",
		"o/shadow.c": "int sh(int v) { int g_probe = v; return g_probe; }\n",
		"p/later.c":  "void later(void) { renamed_fn(2); }\n",
		"q/other.c":  "int other(int k) { return k; }\n",
	}}, nil)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot 2 restores every unit as a stub.
	s2 := open()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Close()
	s2.mu.RLock()
	st := s2.corpora["c"]
	s2.mu.RUnlock()
	stubs := func() int {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.a.StubUnits()
	}
	stubsBefore := stubs()
	if stubsBefore != 5 {
		t.Fatalf("restored %d stubs, want 5", stubsBefore)
	}

	deltas := []struct {
		req  DeltaRequest
		want int
	}{
		// Add: defines added_fn and g_probe (read by n/user.c, o/shadow.c).
		{DeltaRequest{Corpus: "c", Changed: map[string]string{
			"r/new.c": "int g_probe;\nint added_fn(int x) { return x; }\n"}}, 3},
		// Rename: added_fn becomes renamed_fn (read by p/later.c).
		{DeltaRequest{Corpus: "c", Changed: map[string]string{
			"r/new.c": "int g_probe;\nint renamed_fn(int x) { return x; }\n"}}, 3},
		// Remove: undefines renamed_fn and g_probe.
		{DeltaRequest{Corpus: "c", Removed: []string{"r/new.c"}}, 2},
	}
	sum := 0
	for i, d := range deltas {
		var resp DeltaResponse
		post(ts2, "/delta", d.req, &resp)
		if got := resp.Delta.RuleFilesChecked; got != d.want {
			t.Fatalf("delta %d re-checked %d files, want %d", i, got, d.want)
		}
		sum += resp.Delta.RuleFilesChecked
	}

	r, err := http.Get(ts2.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var statz StatzResponse
	if err := json.NewDecoder(r.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	series := make(map[string]int64)
	for _, m := range statz.Metrics {
		series[m.Name] = m.Value
		if m.Name == "adserve_delta_rule_files_rechecked" {
			series[m.Name+"/sum"] = m.Sum
		}
	}
	if got := series["adserve_delta_rule_files_rechecked"]; got != int64(len(deltas)) {
		t.Errorf("re-check histogram count = %d, want %d acks", got, len(deltas))
	}
	if got := series["adserve_delta_rule_files_rechecked/sum"]; got != int64(sum) {
		t.Errorf("re-check histogram sum = %d, want the acks' total %d", got, sum)
	}
	drop := int64(stubsBefore - stubs())
	if got := series["adserve_stubs_hydrated_total"]; got != drop || drop != 3 {
		t.Errorf("hydration counter = %d, stub drop = %d, want both 3", got, drop)
	}
	if got, ok := series["adserve_rule_full_rechecks_total"]; !ok || got != 0 {
		t.Errorf("full re-check counter = %d (registered %v), want 0", got, ok)
	}
}
