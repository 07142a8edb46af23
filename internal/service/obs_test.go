package service_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// fetchText GETs url and returns status, body, and headers.
func fetchText(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// statzCounter sums the named counter's series from a /statz response,
// keeping only series whose labels include every pair of want.
func statzCounter(t *testing.T, url string, name string, want map[string]string) int64 {
	t.Helper()
	var snap service.StatzResponse
	if code, body := getJSON(t, url+"/statz", &snap); code != http.StatusOK {
		t.Fatalf("/statz = %d: %s", code, body)
	}
	var total int64
	for _, m := range snap.Metrics {
		if m.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if m.Labels[k] != v {
				ok = false
			}
		}
		if ok {
			total += m.Value
		}
	}
	return total
}

func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatalf("/assess = %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/delta", service.DeltaRequest{
		Corpus:  "c1",
		Changed: map[string]string{"m/b.c": "int fb(int x) { return x + 1; }\n"},
	}, nil); code != http.StatusOK {
		t.Fatalf("/delta = %d", code)
	}

	code, body, hdr := fetchText(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	if cc := hdr.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		`adserve_deltas_acked_total 1`,
		`adserve_requests_total{endpoint="/assess",class="2xx"} 1`,
		`adserve_requests_total{endpoint="/delta",class="2xx"} 1`,
		"# TYPE adserve_request_latency_ns histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// A second scrape must still validate (the first scrape's own
	// request is now part of the data).
	_, body2, _ := fetchText(t, ts.URL+"/metrics")
	if err := obs.ValidateExposition(body2); err != nil {
		t.Fatalf("second exposition invalid: %v", err)
	}
}

// gcCycles reads the completed GC cycle count from runtime/metrics.
func gcCycles() int64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// sampleValue returns the value of the unlabeled sample name in an
// exposition.
func sampleValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("exposition has no %s sample", name)
	return 0
}

// TestRuntimeGaugesAtScrape oracle-checks the Go runtime gauges: they
// are read at scrape time, so the GC cycle count a scrape reports lies
// between a reading taken before two forced collections, plus two, and
// a reading taken after the scrape. The heap gauges are positive, and
// /statz carries the same series.
func TestRuntimeGaugesAtScrape(t *testing.T) {
	ts := newTestServer(t)
	first := gcCycles()
	runtime.GC()
	runtime.GC()
	code, body, _ := fetchText(t, ts.URL+"/metrics")
	second := gcCycles()
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", code, body)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	if got := sampleValue(t, body, "adserve_go_gc_cycles"); got < first+2 || got > second {
		t.Errorf("scraped GC cycles = %d, want within [%d, %d]", got, first+2, second)
	}
	for _, name := range []string{"adserve_go_heap_live_bytes", "adserve_go_heap_goal_bytes"} {
		if got := sampleValue(t, body, name); got <= 0 {
			t.Errorf("%s = %d, want a positive heap size", name, got)
		}
	}
	if got := sampleValue(t, body, "adserve_go_gc_cpu_ns"); got < 0 {
		t.Errorf("adserve_go_gc_cpu_ns = %d, want a non-negative CPU time", got)
	}
	first = gcCycles()
	runtime.GC()
	got := statzCounter(t, ts.URL, "adserve_go_gc_cycles", nil)
	if second = gcCycles(); got < first+1 || got > second {
		t.Errorf("/statz GC cycles = %d, want within [%d, %d]", got, first+1, second)
	}
}

// metricsStructure strips an exposition down to its structure: comment
// lines verbatim, sample lines truncated at the value.
func metricsStructure(body string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			out = append(out, line)
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			line = line[:i]
		}
		out = append(out, line)
	}
	return out
}

func TestMetricsStructureDeterministic(t *testing.T) {
	// Two servers with different traffic must expose the exact same
	// series in the exact same order: every series is pre-registered at
	// construction, none appear on first use.
	a := newTestServer(t)
	b := newTestServer(t)
	if code, _ := postJSON(t, b.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatal("assess failed")
	}
	for i := 0; i < 3; i++ {
		fetchText(t, b.URL+"/report?corpus=c1")
	}

	_, bodyA, _ := fetchText(t, a.URL+"/metrics")
	_, bodyB, _ := fetchText(t, b.URL+"/metrics")
	sa, sb := metricsStructure(bodyA), metricsStructure(bodyB)
	if len(sa) != len(sb) {
		t.Fatalf("structure line counts differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("structure diverges at line %d: %q vs %q", i, sa[i], sb[i])
		}
	}
}

func TestStatzCounts(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatal("assess failed")
	}
	for i := 0; i < 2; i++ {
		code, _ := postJSON(t, ts.URL+"/delta", service.DeltaRequest{
			Corpus: "c1",
			Changed: map[string]string{
				"m/b.c": "int fb(int x) { return x + " + string(rune('1'+i)) + "; }\n",
			},
		}, nil)
		if code != http.StatusOK {
			t.Fatalf("/delta %d = %d", i, code)
		}
	}
	// A delta that fails validation must not count as acked.
	if code, _ := postJSON(t, ts.URL+"/delta",
		service.DeltaRequest{Corpus: "nope", Changed: map[string]string{"x.c": "int x;"}}, nil); code == http.StatusOK {
		t.Fatal("delta against missing corpus unexpectedly succeeded")
	}

	if got := statzCounter(t, ts.URL, "adserve_deltas_acked_total", nil); got != 2 {
		t.Errorf("deltas acked = %d, want 2", got)
	}
	if got := statzCounter(t, ts.URL, "adserve_delta_files_acked_total", nil); got != 2 {
		t.Errorf("delta files acked = %d, want 2", got)
	}
	if got := statzCounter(t, ts.URL, "adserve_requests_total",
		map[string]string{"endpoint": "/delta", "class": "2xx"}); got != 2 {
		t.Errorf("/delta 2xx = %d, want 2", got)
	}
	if got := statzCounter(t, ts.URL, "adserve_requests_total",
		map[string]string{"endpoint": "/delta", "class": "4xx"}); got != 1 {
		t.Errorf("/delta 4xx = %d, want 1", got)
	}
	// The latency histogram must agree with the counters: three /delta
	// requests were observed.
	if got := statzCounter(t, ts.URL, "adserve_request_latency_ns",
		map[string]string{"endpoint": "/delta"}); got != 3 {
		t.Errorf("/delta latency observations = %d, want 3", got)
	}
}

func TestCacheControlNoStore(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatal("assess failed")
	}
	for _, path := range []string{
		"/metrics", "/statz", "/report?corpus=c1", "/findings?corpus=c1",
	} {
		code, _, hdr := fetchText(t, ts.URL+path)
		if code != http.StatusOK {
			t.Fatalf("%s = %d", path, code)
		}
		if cc := hdr.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s: Cache-Control = %q, want no-store", path, cc)
		}
	}
}

// syncBuf is a goroutine-safe trace-log sink.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// traceLine mirrors the service's trace-log record.
type traceLine struct {
	Endpoint string `json:"endpoint"`
	Status   int    `json:"status"`
	TotalNs  int64  `json:"total_ns"`
	Phases   []struct {
		Name string `json:"name"`
		Ns   int64  `json:"ns"`
	} `json:"phases"`
	Notes map[string]string `json:"notes"`
}

// waitTraceLines polls the sink until want complete lines are present
// (the trace write runs after the response reaches the client).
func waitTraceLines(t *testing.T, sink *syncBuf, want int) []traceLine {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw := sink.String()
		lines := strings.Split(strings.TrimSuffix(raw, "\n"), "\n")
		if raw != "" && strings.HasSuffix(raw, "\n") && len(lines) >= want {
			out := make([]traceLine, len(lines))
			for i, l := range lines {
				if err := json.Unmarshal([]byte(l), &out[i]); err != nil {
					t.Fatalf("trace line %d: %v (%q)", i, err, l)
				}
			}
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace log has %d lines, want %d:\n%s", len(lines), want, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTraceSpanBreakdown(t *testing.T) {
	svc := service.New()
	sink := &syncBuf{}
	svc.TraceLog = sink
	svc.TraceThreshold = 0 // trace everything
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)

	if code, _ := postJSON(t, ts.URL+"/assess",
		service.AssessRequest{Corpus: "c1", Files: smallCorpus()}, nil); code != http.StatusOK {
		t.Fatal("assess failed")
	}
	if code, _ := postJSON(t, ts.URL+"/delta", service.DeltaRequest{
		Corpus:  "c1",
		Changed: map[string]string{"m/b.c": "int fb(int x) { return x - 1; }\n"},
	}, nil); code != http.StatusOK {
		t.Fatal("delta failed")
	}
	if code, _, _ := fetchText(t, ts.URL+"/report?corpus=c1"); code != http.StatusOK {
		t.Fatal("report failed")
	}

	recs := waitTraceLines(t, sink, 3)
	byEndpoint := map[string]traceLine{}
	for _, r := range recs {
		byEndpoint[r.Endpoint] = r
	}

	// Every record's phase breakdown must sum to at most the request
	// total: phases are disjoint sub-intervals of the handler.
	for _, r := range recs {
		var sum int64
		for _, p := range r.Phases {
			if p.Ns < 0 {
				t.Errorf("%s: negative phase %s", r.Endpoint, p.Name)
			}
			sum += p.Ns
		}
		if sum > r.TotalNs {
			t.Errorf("%s: phase sum %d exceeds total %d", r.Endpoint, sum, r.TotalNs)
		}
	}

	d, ok := byEndpoint["/delta"]
	if !ok {
		t.Fatal("no /delta trace record")
	}
	phases := map[string]bool{}
	for _, p := range d.Phases {
		phases[p.Name] = true
	}
	for _, want := range []string{"prepare", "journal_stage", "commit", "assess"} {
		if !phases[want] {
			t.Errorf("/delta trace missing phase %q (got %v)", want, d.Phases)
		}
	}
	if d.Notes["corpus"] != "c1" {
		t.Errorf("/delta trace corpus note = %q, want c1", d.Notes["corpus"])
	}
	rep, ok := byEndpoint["/report"]
	if !ok {
		t.Fatal("no /report trace record")
	}
	if len(rep.Phases) == 0 || rep.Phases[0].Name != "render" {
		t.Errorf("/report trace phases = %v, want render", rep.Phases)
	}
}
