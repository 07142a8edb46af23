package service_test

// TestSameCorpusDeltaStorm hammers ONE corpus with concurrent /delta
// writers — several workers per module, so the module locks genuinely
// contend — while readers pull /report and /findings mid-storm. It pins
// the prepare/commit split (the RUnlock→Lock window in handleDelta):
// whatever the interleaving, the final state must be byte-identical to
// a sequential replay of the same final contents, and under -race the
// mixed readers validate that rendering under the read lock does not
// race delta prepares.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/service"
)

func TestSameCorpusDeltaStorm(t *testing.T) {
	base := map[string]string{
		"mod0/a.c": "int ga;\nint fa(int x) { if (x > 0) { return 1; } return 0; }\n",
		"mod1/b.c": "int fb(int x) { while (x > 0) { x--; } return x; }\n",
		"mod2/c.c": "void fc(void) { fb(3); }\n",
	}
	const workers = 9
	const rounds = 3
	path := func(g int) string { return fmt.Sprintf("mod%d/storm_%02d.c", g%3, g) }
	src := func(g, r int) string {
		return fmt.Sprintf("int storm%d_v%d(int x) {\n  if (x > %d) {\n    x = x - %d;\n  }\n  return x;\n}\n", g, r, g, r+1)
	}

	serve := func() *httptest.Server {
		ts := newTestServer(t)
		if code, body := postJSON(t, ts.URL+"/assess",
			service.AssessRequest{Corpus: "storm", Files: base}, nil); code != http.StatusOK {
			t.Fatalf("assess = %d: %s", code, body)
		}
		return ts
	}
	finalState := func(ts *httptest.Server) (string, string) {
		t.Helper()
		_, report := getJSON(t, ts.URL+"/report?corpus=storm", nil)
		_, findings := getJSON(t, ts.URL+"/findings?corpus=storm", nil)
		return report, findings
	}

	// Reference: the same final per-file contents applied sequentially.
	seq := serve()
	for g := 0; g < workers; g++ {
		if code, body := postJSON(t, seq.URL+"/delta", service.DeltaRequest{
			Corpus: "storm", Changed: map[string]string{path(g): src(g, rounds-1)}}, nil); code != http.StatusOK {
			t.Fatalf("sequential delta %d = %d: %s", g, code, body)
		}
	}
	wantReport, wantFindings := finalState(seq)

	for round := 0; round < 2; round++ {
		ts := serve()
		start := make(chan struct{})
		errc := make(chan error, workers)
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for r := 0; r < rounds; r++ {
					code, body := postJSON(t, ts.URL+"/delta", service.DeltaRequest{
						Corpus: "storm", Changed: map[string]string{path(g): src(g, r)}}, nil)
					if code != http.StatusOK {
						errc <- fmt.Errorf("worker %d round %d: delta = %d: %s", g, r, code, body)
						return
					}
					// A third of the workers read mid-storm, alternating
					// /report and /findings, exercising the body renders
					// (and the findings cache) concurrently with prepares
					// and commits.
					if g%3 != 0 {
						continue
					}
					if (g/3+r)%2 == 0 {
						if code, body := getJSON(t, ts.URL+"/report?corpus=storm", nil); code != http.StatusOK {
							errc <- fmt.Errorf("worker %d round %d: report = %d: %s", g, r, code, body)
							return
						}
						continue
					}
					code, body = getJSON(t, ts.URL+"/findings?corpus=storm", nil)
					if code != http.StatusOK {
						errc <- fmt.Errorf("worker %d round %d: findings = %d: %s", g, r, code, body)
						return
					}
					var fr service.FindingsResponse
					if err := json.Unmarshal([]byte(body), &fr); err != nil || fr.Count != len(fr.Findings) {
						errc <- fmt.Errorf("worker %d round %d: findings body (%v) counts %d of %d rows", g, r, err, fr.Count, len(fr.Findings))
						return
					}
				}
				errc <- nil
			}(g)
		}
		close(start)
		wg.Wait()
		close(errc)
		for err := range errc {
			if err != nil {
				t.Fatal(err)
			}
		}
		gotReport, gotFindings := finalState(ts)
		if gotReport != wantReport {
			t.Fatalf("round %d: storm final report diverges from sequential replay\nwant %.400s\ngot  %.400s",
				round, wantReport, gotReport)
		}
		if gotFindings != wantFindings {
			t.Fatalf("round %d: storm final findings diverge from sequential replay", round)
		}
	}
}
