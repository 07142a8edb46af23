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
// acks' rule_files_checked, which are the files each delta parsed, and
// the condition histogram one per ack summing to the conditioned
// findings the assessor re-evaluated for each.
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
		req         DeltaRequest
		want, conds int
	}{
		// Add: defines added_fn and g_probe (read by n/user.c, o/shadow.c).
		{DeltaRequest{Corpus: "c", Changed: map[string]string{
			"r/new.c": "int g_probe;\nint added_fn(int x) { return x; }\n"}}, 1, 2},
		// Rename: added_fn becomes renamed_fn (read by p/later.c).
		{DeltaRequest{Corpus: "c", Changed: map[string]string{
			"r/new.c": "int g_probe;\nint renamed_fn(int x) { return x; }\n"}}, 1, 2},
		// Remove: undefines renamed_fn and g_probe.
		{DeltaRequest{Corpus: "c", Removed: []string{"r/new.c"}}, 0, 2},
	}
	evaluated := func() int {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.a.RuleConditionsEvaluated()
	}
	sum, conds, rows := 0, 0, 0
	for i, d := range deltas {
		var resp DeltaResponse
		post(ts2, "/delta", d.req, &resp)
		if got := resp.Delta.RuleFilesChecked; got != d.want || got != resp.Delta.Parsed {
			t.Fatalf("delta %d re-checked %d files and parsed %d, want %d", i, got, resp.Delta.Parsed, d.want)
		}
		if got := evaluated(); got != d.conds {
			t.Fatalf("delta %d re-evaluated %d conditions, want %d", i, got, d.conds)
		}
		sum += resp.Delta.RuleFilesChecked
		conds += evaluated()
		rows += resp.Delta.MetricFilesComputed
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
		if m.Name == "adserve_delta_rule_files_rechecked" || m.Name == "adserve_delta_metric_files_recomputed" ||
			m.Name == "adserve_delta_rule_conditions_evaluated" {
			series[m.Name+"/sum"] = m.Sum
		}
	}
	if got := series["adserve_delta_rule_files_rechecked"]; got != int64(len(deltas)) {
		t.Errorf("re-check histogram count = %d, want %d acks", got, len(deltas))
	}
	if got := series["adserve_delta_rule_files_rechecked/sum"]; got != int64(sum) {
		t.Errorf("re-check histogram sum = %d, want the acks' total %d", got, sum)
	}
	// The add and the rename each recompute r/new.c's row; the removal
	// recomputes none.
	if got := series["adserve_delta_metric_files_recomputed"]; got != int64(len(deltas)) {
		t.Errorf("metric-row histogram count = %d, want %d acks", got, len(deltas))
	}
	if got := series["adserve_delta_metric_files_recomputed/sum"]; got != int64(rows) || rows != 2 {
		t.Errorf("metric-row histogram sum = %d, acks' total = %d, want both 2", got, rows)
	}
	if got := series["adserve_delta_rule_conditions_evaluated"]; got != int64(len(deltas)) {
		t.Errorf("condition histogram count = %d, want %d acks", got, len(deltas))
	}
	if got := series["adserve_delta_rule_conditions_evaluated/sum"]; got != int64(conds) || conds != 6 {
		t.Errorf("condition histogram sum = %d, assessor's total = %d, want both 6", got, conds)
	}
	if got, ok := series["adserve_rule_full_rechecks_total"]; !ok || got != 0 {
		t.Errorf("full re-check counter = %d (registered %v), want 0", got, ok)
	}
}

// TestBootLeavesCorpusAssessed pins that a boot ends with every corpus
// assessed: after a crash that leaves one name-changing delta in the
// journal, the replay runs the edited file through the per-file step
// and commits its stub, and the boot's assessment flips its reader's
// finding, so every unit is a stub when the server starts and a
// following /report only reads — it does not move the stub count.
func TestBootLeavesCorpusAssessed(t *testing.T) {
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
	post := func(ts *httptest.Server, path string, req any) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		r, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d", path, r.StatusCode)
		}
	}

	s1 := open()
	ts1 := httptest.NewServer(s1.Handler())
	post(ts1, "/assess", AssessRequest{Corpus: "c", Files: map[string]string{
		"m/lib.c":  "int helper(int x) { return x + 1; }\n",
		"n/user.c": "void user(void) { helper(1); }\n",
	}})
	post(ts1, "/delta", DeltaRequest{Corpus: "c", Changed: map[string]string{
		"m/lib.c": "int helper2(int x) { return x + 1; }\n"}})
	ts1.Close() // crash: the rename survives only in the journal

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
	if n := stubs(); n != 2 {
		t.Fatalf("%d of 2 units are stubs after the boot", n)
	}
	r, err := http.Get(ts2.URL + "/report?corpus=c")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/report = %d", r.StatusCode)
	}
	if n := stubs(); n != 2 {
		t.Fatalf("/report left %d of 2 units stubs", n)
	}
}
