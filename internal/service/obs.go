package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
)

// The observability layer: every route runs under the instrument
// middleware, which counts the request into the per-endpoint series,
// observes its latency, carries a per-request obs.Span through the
// context for the delta pipeline's phase breakdown, and (opt-in)
// writes slow requests to the structured trace log. The registry is
// per-Server — two servers in one process (tests, the load harness's
// fresh-server attempts) never share counters — and all hot-path
// recording is lock-free atomic adds: registration happens once in
// New, never on a request path.

// metricEndpoints is every instrumented route, sorted; the fixed list
// pre-registers the full endpoint x class matrix at construction so
// /metrics exposes an identical series set regardless of traffic.
var metricEndpoints = []string{
	"/assess", "/delta", "/findings", "/healthz",
	"/metrics", "/report", "/snapshot", "/statz",
}

// statusClasses partitions response statuses; index status/100-2.
var statusClasses = []string{"2xx", "3xx", "4xx", "5xx"}

// deltaPhases is every span phase the delta pipeline and the read
// renders record, pre-registered as histogram series.
var deltaPhases = []string{
	"prepare", "commit", "journal_stage", "assess", "sync_barrier", "render",
}

// endpointMetrics is one route's pre-registered instruments. The zero
// value (all-nil instruments) is a valid no-op sink.
type endpointMetrics struct {
	latency *obs.Histogram
	byClass [4]*obs.Counter
}

// classCounter maps a status code to its class counter (out-of-range
// codes clamp into the nearest class).
func (em *endpointMetrics) classCounter(status int) *obs.Counter {
	i := status/100 - 2
	if i < 0 {
		i = 0
	}
	if i >= len(em.byClass) {
		i = len(em.byClass) - 1
	}
	return em.byClass[i]
}

// serverMetrics is the per-Server registry plus the instruments the
// handlers record into directly.
type serverMetrics struct {
	reg       *obs.Registry
	endpoints map[string]*endpointMetrics

	// deltasAcked counts /delta requests acknowledged with 200 — the
	// server-side mirror of a load client's success count — and
	// deltaFilesAcked the file operations (changed + removed) those
	// requests carried.
	deltasAcked     *obs.Counter
	deltaFilesAcked *obs.Counter

	// phases holds one histogram per known span phase name.
	phases map[string]*obs.Histogram

	// dirtyShards observes, per committed delta, how many shards'
	// generations the index update moved.
	dirtyShards *obs.Histogram

	// rechecked and recomputed observe, per acknowledged delta, the
	// files the rule engine re-checked and the metric rows the metrics
	// cache recomputed (the ack's rule_files_checked and
	// metric_files_computed), and conditions the conditioned findings it
	// re-evaluated (core.Assessor.RuleConditionsEvaluated); fallback is
	// handed to every corpus's assessor (core.Assessor.SetMetrics).
	rechecked  *obs.Histogram
	recomputed *obs.Histogram
	conditions *obs.Histogram
	fallback   core.FallbackMetrics

	// findingsEncoded observes, per /findings render, the finding rows
	// it encoded; rows copied from the previous body are not counted,
	// and a read served from the cached body observes nothing. It is
	// handed to every corpus's findingsCache.
	findingsEncoded *obs.Histogram

	// blocksRecomputed, journalStale and journalTorn count the recovery
	// fallbacks NewWithStore's boot took, summed over the corpora it
	// restored (RestoredCorpus.Recomputed, .Stale, and .Torn as one per
	// corpus).
	blocksRecomputed *obs.Counter
	journalStale     *obs.Counter
	journalTorn      *obs.Counter

	// journal is handed to every corpus store (store.SetMetrics); all
	// corpora of the server share these series.
	journal *store.JournalMetrics
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:       reg,
		endpoints: make(map[string]*endpointMetrics, len(metricEndpoints)),
		phases:    make(map[string]*obs.Histogram, len(deltaPhases)),
	}
	for _, ep := range metricEndpoints {
		em := &endpointMetrics{}
		for i, class := range statusClasses {
			em.byClass[i] = reg.Counter("adserve_requests_total",
				"HTTP requests served, by endpoint and status class.",
				obs.L("endpoint", ep), obs.L("class", class))
		}
		em.latency = reg.Histogram("adserve_request_latency_ns",
			"Request wall time in nanoseconds, by endpoint.",
			obs.L("endpoint", ep))
		m.endpoints[ep] = em
	}
	m.deltasAcked = reg.Counter("adserve_deltas_acked_total",
		"POST /delta requests acknowledged with 200 (journaled and durable on persistent servers).")
	m.deltaFilesAcked = reg.Counter("adserve_delta_files_acked_total",
		"File operations (changed plus removed) carried by acknowledged deltas.")
	for _, ph := range deltaPhases {
		m.phases[ph] = reg.Histogram("adserve_delta_phase_ns",
			"Delta pipeline phase wall time in nanoseconds, by phase.",
			obs.L("phase", ph))
	}
	m.dirtyShards = reg.Histogram("adserve_delta_dirty_shards",
		"Shards whose generation moved per committed delta.")
	m.rechecked = reg.Histogram("adserve_delta_rule_files_rechecked",
		"Files the rule engine re-checked per acknowledged delta (its rule_files_checked).")
	m.recomputed = reg.Histogram("adserve_delta_metric_files_recomputed",
		"Metric file rows the metrics cache recomputed per acknowledged delta (its metric_files_computed).")
	m.findingsEncoded = reg.Histogram("adserve_findings_rows_encoded",
		"Finding rows each /findings render encoded; rows copied from the previous body are not counted, and a read of the cached body renders nothing.")
	m.conditions = reg.Histogram("adserve_delta_rule_conditions_evaluated",
		"Conditioned findings the rule engine re-evaluated per acknowledged delta because a name they wait on moved.")
	m.fallback = core.FallbackMetrics{
		FullRechecks: reg.Counter("adserve_rule_full_rechecks_total",
			"Warm rule runs that fell behind the index change feed and so re-evaluated every conditioned finding."),
	}
	m.blocksRecomputed = reg.Counter("adserve_snapshot_blocks_recomputed_total",
		"Snapshot finding and metric blocks that failed to decode at boot or were written by an older format; their shards are parsed at boot and recomputed on first use.")
	m.journalStale = reg.Counter("adserve_journal_records_stale_total",
		"Journal records skipped at boot because they carry a superseded snapshot generation.")
	m.journalTorn = reg.Counter("adserve_journal_torn_tails_total",
		"Corpora that booted with a torn journal tail, dropped at the last complete record.")
	m.journal = &store.JournalMetrics{
		Staged: reg.Counter("adserve_journal_records_staged_total",
			"Journal records staged (one per non-empty commit on persistent servers)."),
		Fsyncs: reg.Counter("adserve_journal_fsyncs_total",
			"Record-durability fsyncs issued; group commit amortizes this below one per record."),
		BatchRecords: reg.Histogram("adserve_journal_batch_records",
			"Records newly made durable per fsync (the group-commit batch size)."),
		Compactions: reg.Counter("adserve_compactions_total",
			"Snapshots written and installed: compactions, POST /snapshot, and shutdown drains."),
		CompactionFailures: reg.Counter("adserve_compaction_failures_total",
			"Snapshot writes that failed before installing (the previous snapshot and journal stay authoritative)."),
		ShardsCopied: reg.Counter("adserve_snapshot_shards_copied_total",
			"Shards whose blocks installed snapshots copied verbatim from the snapshot the corpus was restored from."),
		ShardsEncoded: reg.Counter("adserve_snapshot_shards_encoded_total",
			"Shards installed snapshots encoded afresh."),
	}
	return m
}

// Metrics exposes the server's registry (tests and embedders).
func (s *Server) Metrics() *obs.Registry { return s.obs.reg }

// spanKey carries the request span through the context.
type spanKey struct{}

// spanFrom returns the request's span, or nil (a no-op span) when the
// handler runs outside the instrument middleware.
func spanFrom(ctx context.Context) *obs.Span {
	sp, _ := ctx.Value(spanKey{}).(*obs.Span)
	return sp
}

// statusWriter records the response status and counts the request into
// its class series at header-write time — before the body, so by the
// time a client can observe a complete response the counter already
// includes it (the /statz diff oracle in the load harness depends on
// this ordering).
type statusWriter struct {
	http.ResponseWriter
	em     *endpointMetrics
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
		w.em.classCounter(code).Inc()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
		w.em.classCounter(http.StatusOK).Inc()
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps one route with request accounting, span propagation,
// and slow-request tracing. The deferred recording runs on panics too
// (abortOnEncodeErr kills connections by design), then re-panics
// naturally as the defer unwinds.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.obs.endpoints[endpoint]
	if em == nil {
		em = &endpointMetrics{} // unlisted route: valid no-op sink
	}
	return func(w http.ResponseWriter, r *http.Request) {
		sp := obs.StartSpan()
		sw := &statusWriter{ResponseWriter: w, em: em}
		defer func() {
			total := sp.Total()
			em.latency.Observe(total.Nanoseconds())
			if sw.status == 0 {
				// Nothing was written: the handler died before its
				// response. Count the aborted connection as a 5xx.
				sw.status = http.StatusInternalServerError
				em.classCounter(sw.status).Inc()
			}
			for _, ph := range sp.Phases() {
				s.obs.phases[ph.Name].Observe(ph.Ns)
			}
			s.traceRequest(endpoint, sw.status, total, sp)
		}()
		h(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp)))
	}
}

// traceRecord is one slow-request trace-log line.
type traceRecord struct {
	Time     string            `json:"time"`
	Endpoint string            `json:"endpoint"`
	Status   int               `json:"status"`
	TotalNs  int64             `json:"total_ns"`
	Phases   []obs.SpanPhase   `json:"phases,omitempty"`
	Notes    map[string]string `json:"notes,omitempty"`
}

// traceRequest writes one JSON line for a request at or above the
// threshold. TraceLog and TraceThreshold are configured before serving
// starts and never mutated after; traceMu only serializes writers so
// concurrent lines never interleave.
func (s *Server) traceRequest(endpoint string, status int, total time.Duration, sp *obs.Span) {
	out := s.TraceLog
	if out == nil || total < s.TraceThreshold {
		return
	}
	rec := traceRecord{
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		Endpoint: endpoint,
		Status:   status,
		TotalNs:  total.Nanoseconds(),
		Phases:   sp.Phases(),
	}
	if notes := sp.Notes(); len(notes) > 0 {
		rec.Notes = make(map[string]string, len(notes))
		for _, n := range notes {
			rec.Notes[n.Key] = n.Value
		}
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.traceMu.Lock()
	_, _ = out.Write(line)
	s.traceMu.Unlock()
}

// handleMetrics serves GET /metrics in Prometheus text exposition
// format (rendered to a buffer first: a half-written exposition is
// worse than a 500).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	var buf bytes.Buffer
	if err := s.obs.reg.WritePrometheus(&buf); err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// StatzResponse answers GET /statz: the same registry as /metrics, as
// JSON for programmatic clients (the load harness's diff oracle).
type StatzResponse struct {
	Metrics []obs.MetricValue `json:"metrics"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Cache-Control", "no-store")
	writeJSON(w, http.StatusOK, StatzResponse{Metrics: s.obs.reg.Snapshot()})
}
