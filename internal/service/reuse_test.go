package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/rules"
)

// TestFindingsBodyReusesRuns drives an in-memory server through every
// delta class and checks the /findings render after each: the served
// body equals encoding/json's, the rows-encoded histogram observes one
// render per generation with the rows it encoded, a one-file body edit
// encodes its shard's rows and at most the corpus segment's (the
// on-cycle findings, whose runs the shard's rows delimit, and which split
// s/ping.c's run once the cycle is made) besides, so
// one in a finding-free module away from any cycle encodes nothing and
// sizes its body exactly, and a repeat read at the same generation
// encodes nothing.
func TestFindingsBodyReusesRuns(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	multi := func(name string) string {
		return fmt.Sprintf("int %s(int k) { if (k > 1) { return 1; } return 0; }\n", name)
	}
	files := map[string]string{
		"a/alpha.c": multi("alpha") + "int alpha2(int k) { if (k) { goto out; } return 0; out: return 1; }\n",
		"a/omega.c": multi("omega"),
		"b/beta.c":  "int helper(int x) { return x + 1; }\n" + multi("beta"),
		"c/user.c":  "void user(void) { helper(4); }\n" + multi("usr"),
		"d/quiet.c": "int quiet(int k) { return k; }\n",
		"s/ping.c":  multi("pa") + "int ping(int n) { return pong(n); }\n" + multi("pang"),
		"t/mid.c":   multi("mid") + multi("mid2"),
	}
	for i := 0; i < 6; i++ {
		files[fmt.Sprintf("f%d/fill.c", i)] = multi(fmt.Sprintf("f%d_a", i)) + multi(fmt.Sprintf("f%d_b", i)) + multi(fmt.Sprintf("f%d_c", i))
	}
	post := func(path string, req any) {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	encoded := s.obs.findingsEncoded
	// read serves /findings, checks it against encoding/json's rendering
	// of the corpus's findings, and returns those findings and the rows
	// the read encoded, or -1 when it rendered nothing.
	read := func(stage string) ([]rules.Finding, int) {
		t.Helper()
		count, sum := encoded.Count(), encoded.Sum()
		resp, err := http.Get(ts.URL + "/findings?corpus=c")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /findings: %d %v", stage, resp.StatusCode, err)
		}
		st := s.corpora["c"]
		st.mu.Lock()
		fs := st.a.Findings()
		want := encodedFindings(t, "c", [][]rules.Finding{fs})
		st.mu.Unlock()
		if !bytes.Equal(body, want) {
			t.Fatalf("%s: /findings differs from encoding/json:\n got %q\nwant %q", stage, body, want)
		}
		switch encoded.Count() - count {
		case 0:
			return fs, -1
		case 1:
			return fs, int(encoded.Sum() - sum)
		}
		t.Fatalf("%s: one read observed %d renders", stage, encoded.Count()-count)
		return nil, 0
	}
	// rows counts the findings of module m's shard segment and of the
	// corpus segment.
	rows := func(fs []rules.Finding, m string) (shard, corpus int) {
		for _, f := range fs {
			switch {
			case f.RuleID == "recursion":
				corpus++
			case strings.HasPrefix(f.File, m+"/"):
				shard++
			}
		}
		return shard, corpus
	}

	post("/assess", AssessRequest{Corpus: "c", Files: files})
	fs, n := read("first read")
	if n != len(fs) || n == 0 {
		t.Fatalf("first render after /assess encoded %d rows, want all %d", n, len(fs))
	}
	if shard, _ := rows(fs, "d"); shard != 0 {
		t.Fatalf("module d has %d findings; the finding-free edit below needs none", shard)
	}

	steps := []struct {
		name string
		req  DeltaRequest
		edit string // module of a one-file body edit, else ""
	}{
		{"body edit", DeltaRequest{Changed: map[string]string{
			"a/alpha.c": multi("alpha") + "int alpha2(int k) { return k; }\n"}}, "a"},
		{"body edit in a finding-free module", DeltaRequest{Changed: map[string]string{
			"d/quiet.c": "int quiet(int k) { return k + 1; }\n"}}, "d"},
		{"rename with a reader in another shard", DeltaRequest{Changed: map[string]string{
			"b/beta.c": "int helper2(int x) { return x + 1; }\n" + multi("beta")}}, ""},
		{"file added", DeltaRequest{Changed: map[string]string{"e/new.c": multi("fresh")}}, ""},
		{"file removed", DeltaRequest{Removed: []string{"e/new.c"}}, ""},
		{"cycle made", DeltaRequest{Changed: map[string]string{
			"u/pong.c": "int pong(int n) { return ping(n); }\n"}}, ""},
		{"cycle member's line moved", DeltaRequest{Changed: map[string]string{
			"s/ping.c": "\n" + files["s/ping.c"]}}, "s"},
		{"body edit between the cycle's files", DeltaRequest{Changed: map[string]string{
			"t/mid.c": multi("mid") + "int mid2(int k) { return k; }\n"}}, "t"},
		{"cycle broken", DeltaRequest{Changed: map[string]string{
			"u/pong.c": "int pong(int n) { return n; }\n"}}, ""},
		{"module emptied", DeltaRequest{Removed: []string{"c/user.c"}}, ""},
		{"module re-added", DeltaRequest{Changed: map[string]string{"c/user.c": files["c/user.c"]}}, ""},
		{"batch across modules", DeltaRequest{Changed: map[string]string{
			"a/alpha.c": files["a/alpha.c"], "b/beta.c": files["b/beta.c"]}}, ""},
		{"more names than the feed retains", DeltaRequest{Changed: map[string]string{
			"z/flood.c": floodVoids(artifact.FeedRetention + 1)}}, ""},
	}
	for _, step := range steps {
		step.req.Corpus = "c"
		post("/delta", step.req)
		fs, n := read(step.name)
		if n < 0 {
			t.Fatalf("%s: the first read after a delta rendered nothing", step.name)
		}
		if step.edit != "" {
			shard, corpus := rows(fs, step.edit)
			if n < shard || n > shard+corpus {
				t.Fatalf("%s: encoded %d rows; the edited shard holds %d and the corpus segment %d", step.name, n, shard, corpus)
			}
		}
		if n == 0 {
			st := s.corpora["c"]
			st.projMu.Lock()
			body := st.projFindings
			st.projMu.Unlock()
			if cap(body) != len(body) {
				t.Fatalf("%s: every run was copied, yet the body has %d spare bytes", step.name, cap(body)-len(body))
			}
		}
		if _, n := read(step.name + ", repeat read"); n != -1 {
			t.Fatalf("%s: a repeat read at the same generation rendered (%d rows encoded)", step.name, n)
		}
	}
}

// floodVoids returns a file defining n distinct void functions.
func floodVoids(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "void v_flood_%d(void) { }\n", i)
	}
	return sb.String()
}
