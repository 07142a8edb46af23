// Package service is the serving front end of the assessor: a
// long-running HTTP JSON API holding warm core.Assessor state per
// corpus, so repeated assessments of nearly-identical corpora ride the
// incremental engine instead of re-parsing and re-indexing from
// scratch.
//
// Endpoints:
//
//	POST /assess — create or replace a named corpus (inline files, a
//	               server-side directory, or the generated default) and
//	               run a full assessment;
//	POST /delta  — apply a file-level edit to a loaded corpus and
//	               re-assess incrementally;
//	POST /snapshot — force a compaction: write a fresh snapshot and
//	               absorb the journal (persistent servers only);
//	GET  /report — return the full report for a loaded corpus;
//	GET  /findings — return every individual finding for a loaded corpus
//	               (the differential harness byte-compares the served
//	               body against the in-process engines' findings).
//
// A server opened over a data directory (NewWithStore) is persistent:
// every corpus is restored on boot from its snapshot plus delta-journal
// replay (a torn journal tail — the crash-mid-append signature — is
// dropped), every /delta is journaled and made durable before it is
// acknowledged — concurrent deltas group-commit, coalescing their
// journal fsyncs onto a shared one issued outside the corpus lock — the
// journal is compacted into a fresh snapshot when it outgrows its
// thresholds, and Close drains state back to disk and writes a
// clean-shutdown marker so the next boot replays nothing.
// /report and /findings additionally honor Accept-Encoding: gzip —
// their multi-megabyte bodies compress roughly 20x on large corpora.
//
// Every response is JSON; errors are {"error": "..."} with a non-2xx
// status. Request bodies above MaxBody bytes are rejected with 413 and
// leave corpus state untouched. The server is safe for concurrent
// clients: distinct corpora proceed fully in parallel, and within one
// corpus the locking is shard-aware — a delta takes per-module locks
// plus a read lock for its expensive prepare phase (validation and
// parsing), so concurrent deltas to disjoint modules overlap instead of
// serializing end to end; only the cheap commit+re-assess runs under the
// corpus write lock. Deltas touching the same module serialize entirely,
// which pins a deterministic application order for conflicting edits.
package service

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/iso26262"
	"repro/internal/rules"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// DefaultMaxBody caps request bodies at 16 MiB: enough for a 10k-file
// generated corpus upload, small enough to bound a single request's
// memory.
const DefaultMaxBody = 16 << 20

// Server holds the warm per-corpus assessor states.
type Server struct {
	// mu guards the corpus table: read-held for the name lookup every
	// request starts with, write-held only when /assess installs or
	// reinstates a corpus and when Close drains. Reads of distinct (or
	// the same) corpora never contend here.
	mu sync.RWMutex
	// AllowDir, when true, lets POST /assess load server-side
	// directories via "dir" (off by default: the service should not
	// read arbitrary paths on behalf of remote clients).
	AllowDir bool
	// MaxBody caps request body size in bytes; 0 means DefaultMaxBody.
	MaxBody int64
	corpora map[string]*corpusState
	// dataDir, when non-nil, makes the server persistent (see the
	// package comment); nil servers are purely in-memory.
	dataDir *store.Dir

	// TraceLog, when non-nil, receives one JSON line per request whose
	// total latency reaches TraceThreshold (0 logs every request) —
	// endpoint, status, total, and the span's phase breakdown. Both are
	// configured before serving starts and never mutated after; traceMu
	// serializes writers so concurrent lines never interleave.
	TraceLog       io.Writer
	TraceThreshold time.Duration
	traceMu        sync.Mutex

	// obs is the per-Server metrics registry (see obs.go); always
	// non-nil on servers built via New/NewWithStore.
	obs *serverMetrics
}

type corpusState struct {
	// mu guards the assessor: read-held during delta prepares (which
	// read the file set and run each changed file through the per-file
	// step on pooled loaders) and rendered-projection serves, write-held
	// for commits and the assessments they trigger. Every path that
	// writes the corpus — /assess, /delta, compaction, and the boot that
	// restores and replays it — ends with the corpus assessed, so a
	// renderer under the read lock only reads: its caches are warm, and
	// no unit holds an AST, so nothing parses. projMu serializes the
	// renderers against each other.
	mu sync.RWMutex
	a  *core.Assessor
	// cs is the corpus's persistent store (nil on in-memory servers).
	// It is touched only under mu's write lock: the journal stage runs
	// inside CommitDelta via the assessor's commit hook, compaction and
	// snapshots run after commits, and Close drains under the lock. The
	// one exception is the sync barrier a delta captures under the lock
	// and invokes after release — the group-commit fsync (Journal is
	// internally locked for exactly this).
	cs *store.CorpusStore

	// shardMu guards the module-lock table; each module lock serializes
	// deltas touching that shard so conflicting edits apply in a
	// deterministic order while disjoint-module deltas overlap.
	shardMu    sync.Mutex
	shardLocks map[string]*sync.Mutex

	// projMu guards the cached response bodies and the findings cache
	// below. It nests inside mu — renderers hold st.mu.RLock, then
	// projMu — and serializes the (expensive) render so a burst of reads
	// after one delta renders once and the rest serve the cached bytes.
	// A published body is immutable (invalidation drops it, and the
	// next render allocates a fresh buffer and only reads the previous
	// one), so handlers write it after releasing every lock.
	projMu sync.Mutex
	// projGen is the assessor generation projReport/projFindings were
	// rendered at; a Gen() advance invalidates both.
	projGen      uint64
	projReport   []byte
	projFindings []byte
	// findings renders projFindings, copying from the previous
	// /findings body the rows of the runs a delta left in place. It
	// survives generation advances: it is the previous body.
	findings findingsCache
}

// lockModules acquires the per-module locks for the given paths' modules
// in sorted order (deadlock-free) and returns the matching unlock. The
// module of a path is its leading segment — exactly how the corpus
// shards requests made through the service API.
func (st *corpusState) lockModules(paths []string) (unlock func()) {
	seen := make(map[string]bool)
	var mods []string
	for _, p := range paths {
		m := (&srcfile.File{Path: p}).ModuleName()
		if !seen[m] {
			seen[m] = true
			mods = append(mods, m)
		}
	}
	sort.Strings(mods)
	st.shardMu.Lock()
	if st.shardLocks == nil {
		st.shardLocks = make(map[string]*sync.Mutex)
	}
	locks := make([]*sync.Mutex, 0, len(mods))
	for _, m := range mods {
		l := st.shardLocks[m]
		if l == nil {
			l = &sync.Mutex{}
			st.shardLocks[m] = l
		}
		locks = append(locks, l)
	}
	st.shardMu.Unlock()
	for _, l := range locks {
		l.Lock()
	}
	return func() {
		for i := len(locks) - 1; i >= 0; i-- {
			locks[i].Unlock()
		}
	}
}

// New creates an empty in-memory server.
func New() *Server {
	return &Server{
		corpora: make(map[string]*corpusState),
		obs:     newServerMetrics(),
	}
}

// RestoredCorpus describes one corpus recovered during NewWithStore.
type RestoredCorpus struct {
	Name string
	// Files is the restored corpus size.
	Files int
	// Replayed journal records applied on top of the snapshot.
	Replayed int
	// Stale journal records skipped because they carry a superseded
	// snapshot generation.
	Stale int
	// Torn reports that a torn journal tail was dropped.
	Torn bool
	// Recomputed is the number of snapshot finding and metric blocks that
	// failed to decode or were written by an older format; their shards
	// are recomputed on first use.
	Recomputed int
	// Clean reports the previous process shut down cleanly (marker
	// present, nothing to replay).
	Clean bool
}

// NewWithStore creates a persistent server over a data directory,
// restoring and assessing every stored corpus (snapshot + journal
// replay, torn tails tolerated) and journaling every subsequent delta
// before it is acknowledged. The returned list describes what was
// recovered.
func NewWithStore(d *store.Dir) (*Server, []RestoredCorpus, error) {
	s := New()
	s.dataDir = d
	names, err := d.Corpora()
	if err != nil {
		return nil, nil, err
	}
	restored := make([]RestoredCorpus, 0, len(names))
	for _, name := range names {
		cs, err := d.Corpus(name)
		if err != nil {
			return nil, nil, err
		}
		cs.SetMetrics(s.obs.journal)
		a, info, err := cs.Recover(core.DefaultConfig())
		if err != nil {
			return nil, nil, fmt.Errorf("restore corpus %q: %w", name, err)
		}
		a.SetCommitHook(cs.Stage)
		a.SetMetrics(s.obs.fallback)
		// Replayed records leave the step's walks and rows waiting and
		// the caches behind them; assessing here, as every write path
		// does, leaves renderers nothing to write.
		a.Assess()
		s.corpora[name] = &corpusState{a: a, cs: cs, findings: findingsCache{encoded: s.obs.findingsEncoded}}
		s.obs.blocksRecomputed.Add(int64(info.Recomputed))
		s.obs.journalStale.Add(int64(info.Stale))
		if info.Torn {
			s.obs.journalTorn.Inc()
		}
		restored = append(restored, RestoredCorpus{
			Name:       name,
			Files:      a.FileSet().Len(),
			Replayed:   info.Replayed,
			Stale:      info.Stale,
			Torn:       info.Torn,
			Recomputed: info.Recomputed,
			Clean:      info.Clean,
		})
	}
	return s, restored, nil
}

// Close drains a persistent server back to disk: every corpus is
// compacted into a fresh snapshot (absorbing its journal), the journal
// is synced and closed, and a clean-shutdown marker is written so the
// next boot replays nothing. In-memory servers close trivially.
// Callers stop accepting requests (http.Server.Shutdown) first.
func (s *Server) Close() error {
	s.mu.Lock()
	names := make([]string, 0, len(s.corpora))
	for name := range s.corpora {
		names = append(names, name)
	}
	sort.Strings(names)
	states := make([]*corpusState, 0, len(names))
	for _, name := range names {
		states = append(states, s.corpora[name])
	}
	s.mu.Unlock()
	var firstErr error
	for _, st := range states {
		st.mu.Lock()
		if st.cs != nil {
			if _, err := st.persist(); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := st.cs.MarkClean(); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := st.cs.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			st.cs = nil
			st.a.SetCommitHook(nil)
		}
		st.mu.Unlock()
	}
	return firstErr
}

// persist writes the corpus's current state as a snapshot, absorbing
// the journal, and returns the encoded size. Callers hold the write
// lock.
func (st *corpusState) persist() (int64, error) {
	snap, err := st.a.ExportState()
	if err != nil {
		return 0, err
	}
	return st.cs.WriteSnapshot(snap)
}

// Handler returns the HTTP routing for the service. Every route runs
// under the instrument middleware (request counts, latency, spans,
// slow-request tracing).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/assess", s.instrument("/assess", s.handleAssess))
	mux.HandleFunc("/delta", s.instrument("/delta", s.handleDelta))
	mux.HandleFunc("/snapshot", s.instrument("/snapshot", s.handleSnapshot))
	mux.HandleFunc("/report", s.instrument("/report", s.handleReport))
	mux.HandleFunc("/findings", s.instrument("/findings", s.handleFindings))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("/statz", s.instrument("/statz", s.handleStatz))
	mux.HandleFunc("/healthz", s.instrument("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	return mux
}

// ---------------------------------------------------------------------------
// Requests and responses

// AssessRequest creates or replaces a corpus.
type AssessRequest struct {
	// Corpus names the assessor state; defaults to "default".
	Corpus string `json:"corpus"`
	// ASIL is the target integrity level ("QM", "A".."D"); default "D".
	ASIL string `json:"asil"`
	// Files maps corpus-relative paths to source content. When empty,
	// Generate or Dir must supply the corpus.
	Files map[string]string `json:"files"`
	// Generate loads the calibrated Apollo-like corpus (with Seed).
	Generate bool  `json:"generate"`
	Seed     int64 `json:"seed"`
	// Dir loads a server-side directory tree (requires Server.AllowDir).
	Dir string `json:"dir"`
}

// DeltaRequest edits a loaded corpus. A multi-file request is a
// *batch*: every change and removal commits atomically as one delta —
// one journal record (one fsync under group commit), one index update,
// one generation advance — with per-commit costs amortized across the
// batch. A path in both Changed and Removed is removed first, then
// re-added fresh (core.PrepareDelta's ordering rule). CI-bot workloads
// should ship one request per commit, not one per file; adload's
// -batch flag measures the amortization.
type DeltaRequest struct {
	Corpus string `json:"corpus"`
	// Changed maps paths to new content (add or replace).
	Changed map[string]string `json:"changed"`
	// Removed lists paths to delete.
	Removed []string `json:"removed"`
}

// Summary is the compact assessment result embedded in responses.
type Summary struct {
	Corpus    string         `json:"corpus"`
	Target    string         `json:"target_asil"`
	Files     int            `json:"files"`
	LOC       int            `json:"loc"`
	Functions int            `json:"functions"`
	Findings  int            `json:"findings"`
	Gaps      int            `json:"gaps"`
	ByRule    map[string]int `json:"findings_by_rule"`
}

// DeltaStats reports what the incremental engine actually redid.
type DeltaStats struct {
	Parsed              int `json:"parsed"`
	Unchanged           int `json:"unchanged"`
	Removed             int `json:"removed"`
	RuleFilesChecked    int `json:"rule_files_checked"`
	MetricFilesComputed int `json:"metric_files_computed"`
}

// AssessResponse answers POST /assess.
type AssessResponse struct {
	Summary Summary `json:"summary"`
}

// JournalStats reports the persistence state after a delta on a
// persistent server.
type JournalStats struct {
	// Records and Bytes describe the journal after the delta (and after
	// any compaction it triggered).
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Fsyncs is the cumulative record-durability fsync count of the
	// corpus's journal (monotonic across compactions). A load harness
	// divides it by the deltas it issued to measure group-commit
	// amortization.
	Fsyncs int64 `json:"fsyncs"`
	// Compacted reports that this delta tripped a compaction: the
	// journal was absorbed into a fresh snapshot.
	Compacted bool `json:"compacted"`
}

// DeltaResponse answers POST /delta.
type DeltaResponse struct {
	Summary Summary    `json:"summary"`
	Delta   DeltaStats `json:"delta"`
	// Journal is present on persistent servers only.
	Journal *JournalStats `json:"journal,omitempty"`
}

// SnapshotRequest asks for a forced compaction.
type SnapshotRequest struct {
	Corpus string `json:"corpus"`
}

// SnapshotResponse answers POST /snapshot.
type SnapshotResponse struct {
	Corpus        string `json:"corpus"`
	Files         int    `json:"files"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
}

// TopicRow is one verdict row of the report tables.
type TopicRow struct {
	Table      string `json:"table"`
	Item       int    `json:"item"`
	Name       string `json:"name"`
	Verdict    string `json:"verdict"`
	Violations int    `json:"violations"`
	Effort     string `json:"effort"`
	Evidence   string `json:"evidence"`
	Gap        bool   `json:"gap"`
}

// ObservationRow is one numbered observation.
type ObservationRow struct {
	Number   int    `json:"number"`
	Text     string `json:"text"`
	Evidence string `json:"evidence"`
}

// ModuleRow summarizes one module's metrics.
type ModuleRow struct {
	Name      string `json:"name"`
	Files     int    `json:"files"`
	LOC       int    `json:"loc"`
	NLOC      int    `json:"nloc"`
	Functions int    `json:"functions"`
	MaxCCN    int    `json:"max_ccn"`
}

// ReportResponse answers GET /report.
type ReportResponse struct {
	Summary      Summary          `json:"summary"`
	Coding       []TopicRow       `json:"coding"`
	Arch         []TopicRow       `json:"arch"`
	Unit         []TopicRow       `json:"unit"`
	Observations []ObservationRow `json:"observations"`
	Modules      []ModuleRow      `json:"modules"`
}

// FindingRow is one rule finding with every field the engine reports, so
// a client can reconstruct the finding stream byte-for-byte. It is the
// documented wire schema of /findings rows: the server writes it through
// its own appender (findingsCache), and TestFindingsBodyMatchesEncodingJSON
// pins that appender's bytes equal to encoding/json's encoding of
// FindingsResponse.
type FindingRow struct {
	Rule     string   `json:"rule"`
	Severity string   `json:"severity"`
	File     string   `json:"file"`
	Module   string   `json:"module"`
	Line     int      `json:"line"`
	Function string   `json:"function,omitempty"`
	Msg      string   `json:"msg"`
	Refs     []string `json:"refs,omitempty"`
}

// FindingsResponse answers GET /findings.
type FindingsResponse struct {
	Corpus   string       `json:"corpus"`
	Count    int          `json:"count"`
	Findings []FindingRow `json:"findings"`
}

// ---------------------------------------------------------------------------
// Handlers

// decodeBody decodes a JSON request body under the server's size cap,
// writing the error response itself on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	max := s.MaxBody
	if max <= 0 {
		max = DefaultMaxBody
	}
	r.Body = http.MaxBytesReader(w, r.Body, max)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		writeErr(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req AssessRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	name := req.Corpus
	if name == "" {
		name = "default"
	}
	if s.dataDir != nil && !store.ValidCorpusName(name) {
		writeErr(w, http.StatusBadRequest,
			fmt.Sprintf("corpus name %q is not storable on a persistent server (letters, digits, '._-', no leading dot, max 64)", name))
		return
	}
	asil := iso26262.ASILD
	if req.ASIL != "" {
		var err error
		if asil, err = iso26262.ParseASIL(req.ASIL); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	cfg := core.DefaultConfig()
	cfg.TargetASIL = asil
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	a := core.NewAssessor(cfg)
	a.SetMetrics(s.obs.fallback)
	switch {
	case len(req.Files) > 0:
		fs := srcfile.NewFileSet()
		for _, p := range sortedKeys(req.Files) {
			fs.AddSource(p, req.Files[p])
		}
		if err := a.LoadFileSet(fs); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	case req.Dir != "":
		if !s.AllowDir {
			writeErr(w, http.StatusForbidden, "directory ingest is disabled on this server")
			return
		}
		if err := a.LoadDir(req.Dir); err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	case req.Generate:
		if err := a.LoadDefaultCorpus(); err != nil {
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, "one of files, dir, or generate is required")
		return
	}

	st := &corpusState{a: a, findings: findingsCache{encoded: s.obs.findingsEncoded}}
	st.mu.Lock()
	s.mu.Lock()
	old := s.corpora[name]
	s.corpora[name] = st
	s.mu.Unlock()

	// A replaced corpus must quiesce before the fresh state takes over
	// the on-disk directory: taking the old write lock waits out
	// in-flight commits (whose journal appends the new snapshot below
	// then discards — they carry the superseded generation either way),
	// and clearing the hook stops any later ones. The old store HANDLE
	// stays open until the new snapshot is installed, so a persistence
	// failure can hand the corpus back fully functional.
	var oldCS *store.CorpusStore
	if old != nil {
		//adlint:ignore lockorder rank-equal corpus locks: always (successor, predecessor) during replacement; a predecessor never locks its successor, so the chain is acyclic
		old.mu.Lock()
		oldCS, old.cs = old.cs, nil
		old.a.SetCommitHook(nil)
		old.mu.Unlock()
	}

	as := a.Assess()
	// Persistent servers write the initial snapshot before the corpus
	// is acknowledged: an /assess that returns 200 survives a crash.
	if s.dataDir != nil {
		cs, err := s.dataDir.Corpus(name)
		if err == nil {
			cs.SetMetrics(s.obs.journal)
			st.cs = cs
			_, err = st.persist()
		}
		if err != nil {
			// Persistence failed: a 500 must not leave the name serving
			// nothing. Reinstate the replaced corpus — its on-disk
			// snapshot+journal are still the source of truth (an error
			// means the new snapshot never renamed into place) — with
			// its original, still-open store so later deltas keep
			// journaling under the correct generation.
			s.mu.Lock()
			if s.corpora[name] == st {
				if old != nil {
					s.corpora[name] = old
				} else {
					delete(s.corpora, name)
				}
			}
			s.mu.Unlock()
			if old != nil && oldCS != nil {
				//adlint:ignore lockorder rank-equal corpus locks: same (successor, predecessor) replacement order as above, reinstating the superseded state
				old.mu.Lock()
				old.cs = oldCS
				old.a.SetCommitHook(oldCS.Stage)
				old.mu.Unlock()
			}
			st.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, "persist corpus: "+err.Error())
			return
		}
		a.SetCommitHook(cs.Stage)
	}
	resp := AssessResponse{Summary: summarize(name, a, as)}
	st.mu.Unlock()
	if oldCS != nil {
		// The replacement is durable; release the superseded handle. A
		// close error on it is unactionable — its snapshot+journal are
		// no longer the source of truth.
		_ = oldCS.Close()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req DeltaRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	st, name, ok := s.corpus(req.Corpus)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("corpus %q not loaded", name))
		return
	}
	if len(req.Changed) == 0 && len(req.Removed) == 0 {
		writeErr(w, http.StatusBadRequest, "empty delta")
		return
	}
	d := core.Delta{Removed: req.Removed}
	touched := append([]string(nil), req.Removed...)
	for _, p := range sortedKeys(req.Changed) {
		d.Changed = append(d.Changed, &srcfile.File{Path: p, Src: req.Changed[p]})
		touched = append(touched, p)
	}

	sp := spanFrom(r.Context())
	sp.Note("corpus", name)

	// Shard-aware locking: hold the touched modules for the whole
	// request (conflicting deltas serialize in arrival order), but run
	// the expensive prepare phase under only a read lock so deltas to
	// disjoint modules validate, parse, walk and compute their metric
	// rows concurrently.
	unlock := st.lockModules(touched)
	defer unlock()

	// Phase timings are disjoint sub-intervals of the request (the
	// breakdown sums to at most the middleware's total). "prepare"
	// covers validation plus the per-file step (parse, facts, rule walk,
	// metric row) under the read lock, "commit" the in-memory index
	// update (hook time subtracted out as "journal_stage"), "assess" the
	// re-assessment from the step's walks and rows, "sync_barrier" the
	// group-commit fsync wait after the lock is released.
	tPrepare := time.Now()
	st.mu.RLock()
	// A delta against a file the corpus does not hold is a client error;
	// reject it before any state changes (core.ApplyDelta would silently
	// ignore the removal).
	for _, p := range req.Removed {
		if st.a.FileSet().Lookup(p) == nil {
			st.mu.RUnlock()
			writeErr(w, http.StatusUnprocessableEntity,
				fmt.Sprintf("removed path %q is not in corpus %q", p, name))
			return
		}
	}
	pd, err := st.a.PrepareDelta(d)
	st.mu.RUnlock()
	sp.Observe("prepare", time.Since(tPrepare).Nanoseconds())
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err.Error())
		return
	}

	st.mu.Lock()
	tCommit := time.Now()
	// On a persistent server the commit hook stages the journal record
	// inside CommitDelta before any state mutates (commit order = journal
	// order, so every later fsync covers a prefix of committed deltas); a
	// staging failure surfaces as a commit error with the corpus
	// untouched. Durability comes from the sync barrier below, after the
	// write lock is released, so concurrent deltas group-commit onto a
	// shared fsync — but always before the 200: an acknowledged delta is
	// on disk.
	res, err := st.a.CommitDelta(pd)
	if err != nil {
		st.mu.Unlock()
		// A journal failure is a server-side durability fault (retry
		// later), not an invalid request.
		status := http.StatusUnprocessableEntity
		if errors.Is(err, core.ErrCommitHook) {
			status = http.StatusInternalServerError
		}
		writeErr(w, status, err.Error())
		return
	}
	sp.Observe("journal_stage", res.HookNs)
	sp.Observe("commit", time.Since(tCommit).Nanoseconds()-res.HookNs)
	s.obs.dirtyShards.Observe(int64(res.DirtyShards))
	tAssess := time.Now()
	as := st.a.Assess()
	sp.Observe("assess", time.Since(tAssess).Nanoseconds())
	resp := DeltaResponse{
		Summary: summarize(name, st.a, as),
		Delta: DeltaStats{
			Parsed:              res.Parsed,
			Unchanged:           res.Unchanged,
			Removed:             res.Removed,
			RuleFilesChecked:    st.a.RuleFilesChecked(),
			MetricFilesComputed: st.a.MetricFilesComputed(),
		},
	}
	conditions := st.a.RuleConditionsEvaluated()
	var syncJournal func() (int64, error)
	if st.cs != nil {
		js := &JournalStats{}
		if st.cs.ShouldCompact() {
			// Compaction failure is not a delta failure: the record is
			// staged (and absorbed or fsync'd below) either way, and the
			// next delta retries the compaction.
			_, perr := st.persist()
			js.Compacted = perr == nil
		}
		js.Records, js.Bytes = st.cs.JournalRecords(), st.cs.JournalBytes()
		resp.Journal = js
		// Capture the barrier under the lock so it covers exactly the
		// staged prefix ending at this commit (a compaction just above
		// makes it a no-op: the snapshot absorbed the record).
		syncJournal = st.cs.SyncBarrier()
	}
	st.mu.Unlock()
	if syncJournal != nil {
		tSync := time.Now()
		n, err := syncJournal()
		sp.Observe("sync_barrier", time.Since(tSync).Nanoseconds())
		if err != nil {
			// The commit is in memory but its durability is unknown: a
			// distinct server-side fault — the client must not assume
			// the delta survives a crash.
			writeErr(w, http.StatusInternalServerError, "journal sync: "+err.Error())
			return
		}
		resp.Journal.Fsyncs = n
	}
	// Counted before the response hits the wire: once a client observes
	// the 200, the ack is already in /statz (the load harness diffs the
	// two).
	s.obs.deltasAcked.Inc()
	s.obs.deltaFilesAcked.Add(int64(len(req.Changed) + len(req.Removed)))
	s.obs.rechecked.Observe(int64(resp.Delta.RuleFilesChecked))
	s.obs.recomputed.Observe(int64(resp.Delta.MetricFilesComputed))
	s.obs.conditions.Observe(int64(conditions))
	writeJSON(w, http.StatusOK, resp)
}

// handleSnapshot forces a compaction: the corpus's current state is
// written as a fresh snapshot and the journal is absorbed into it.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req SnapshotRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if s.dataDir == nil {
		writeErr(w, http.StatusBadRequest, "server has no data directory (-data-dir)")
		return
	}
	st, name, ok := s.corpus(req.Corpus)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("corpus %q not loaded", name))
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.cs == nil {
		writeErr(w, http.StatusConflict, fmt.Sprintf("corpus %q is no longer backed by the store", name))
		return
	}
	n, err := st.persist()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Corpus:        name,
		Files:         st.a.FileSet().Len(),
		SnapshotBytes: n,
	})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st, name, ok := s.corpus(r.URL.Query().Get("corpus"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("corpus %q not loaded", name))
		return
	}
	endRender := spanFrom(r.Context()).Phase("render")
	body := st.rendered(&st.projReport, reportBody, name)
	endRender()
	writeBody(w, r, body)
}

// rendered serves one of the corpus's cached response bodies (slot is
// &st.projReport or &st.projFindings), rendering it with render at most
// once per assessor generation: concurrent reads share the cached bytes
// under the corpus read lock, so they neither block each other nor pay
// repeated renders, and a write (delta commit) waits only for the render
// in flight, not for a queue of them. A generation advance drops both
// bodies (st.findings keeps the previous /findings body to copy from);
// the returned bytes are never written again.
func (st *corpusState) rendered(slot *[]byte, render func(name string, a *core.Assessor) []byte, name string) []byte {
	st.mu.RLock()
	defer st.mu.RUnlock()
	gen := st.a.Gen()
	st.projMu.Lock()
	defer st.projMu.Unlock()
	if st.projGen != gen {
		st.projGen = gen
		st.projReport, st.projFindings = nil, nil
	}
	if *slot == nil {
		*slot = render(name, st.a)
	}
	return *slot
}

// BuildReport assembles the full report payload for an assessor. Exported
// so the differential harness can byte-compare the HTTP path against a
// reference assessor through the exact same projection.
func BuildReport(name string, a *core.Assessor) ReportResponse {
	as := a.Assess()
	resp := ReportResponse{
		Summary:      summarize(name, a, as),
		Coding:       topicRows("coding", as.Coding, as.Target),
		Arch:         topicRows("arch", as.Arch, as.Target),
		Unit:         topicRows("unit", as.Unit, as.Target),
		Observations: make([]ObservationRow, 0, len(as.Observations)),
		Modules:      make([]ModuleRow, 0, len(a.Metrics().Modules)),
	}
	for _, o := range as.Observations {
		resp.Observations = append(resp.Observations, ObservationRow{o.Number, o.Text, o.Evidence})
	}
	for _, m := range a.Metrics().Modules {
		resp.Modules = append(resp.Modules, ModuleRow{m.Name, m.Files, m.LOC, m.NLOC, m.Functions, m.MaxCCN})
	}
	return resp
}

func (s *Server) handleFindings(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	st, name, ok := s.corpus(r.URL.Query().Get("corpus"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Sprintf("corpus %q not loaded", name))
		return
	}
	endRender := spanFrom(r.Context()).Phase("render")
	body := st.rendered(&st.projFindings, st.findings.render, name)
	endRender()
	writeBody(w, r, body)
}

// FindingRows projects engine findings onto the wire rows, preserving
// order and every field. The differential harness applies the same
// projection to in-process findings and compares canonical JSON bytes.
func FindingRows(fs []rules.Finding) []FindingRow {
	rows := make([]FindingRow, 0, len(fs))
	for i := range fs {
		f := &fs[i]
		row := FindingRow{
			Rule:     f.RuleID,
			Severity: f.Severity.String(),
			File:     f.File,
			Module:   f.Module,
			Line:     f.Line,
			Function: f.Function,
			Msg:      f.Msg,
		}
		for _, ref := range f.Refs {
			row.Refs = append(row.Refs, ref.String())
		}
		rows = append(rows, row)
	}
	return rows
}

// corpus resolves a (possibly empty) corpus name.
func (s *Server) corpus(name string) (*corpusState, string, bool) {
	if name == "" {
		name = "default"
	}
	s.mu.RLock()
	st, ok := s.corpora[name]
	s.mu.RUnlock()
	return st, name, ok
}

// ---------------------------------------------------------------------------
// Helpers

func summarize(name string, a *core.Assessor, as *core.Assessment) Summary {
	fw := a.Metrics()
	st := a.Stats()
	byRule := make(map[string]int, len(st.ByRule))
	for r, n := range st.ByRule {
		byRule[r] = n
	}
	return Summary{
		Corpus:    name,
		Target:    as.Target.String(),
		Files:     fw.TotalFiles,
		LOC:       fw.TotalLOC,
		Functions: fw.TotalFunc,
		Findings:  st.Total,
		Gaps:      len(as.Gaps()),
		ByRule:    byRule,
	}
}

func topicRows(table string, tas []iso26262.TopicAssessment, target iso26262.ASIL) []TopicRow {
	out := make([]TopicRow, 0, len(tas))
	for _, ta := range tas {
		out = append(out, TopicRow{
			Table:      table,
			Item:       ta.Topic.Item,
			Name:       ta.Topic.Name,
			Verdict:    ta.Verdict.String(),
			Violations: ta.Violations,
			Effort:     ta.Effort.String(),
			Evidence:   ta.Evidence,
			Gap:        ta.Gap(target),
		})
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	abortOnEncodeErr(json.NewEncoder(w).Encode(v))
}

// abortOnEncodeErr handles a mid-body encode failure. The status line
// is already on the wire, so the response cannot be turned into an
// error — but it must not be left looking like a success either: the
// handler panics to kill the connection, so the client sees a truncated
// transfer instead of a complete-looking 200 with a silently truncated
// body. A value the encoder cannot marshal is a server bug and panics
// loudly (net/http logs the stack); a write failure means the client is
// gone and aborts quietly via http.ErrAbortHandler.
func abortOnEncodeErr(err error) {
	if err == nil {
		return
	}
	var ute *json.UnsupportedTypeError
	var uve *json.UnsupportedValueError
	var me *json.MarshalerError
	if errors.As(err, &ute) || errors.As(err, &uve) || errors.As(err, &me) {
		panic(fmt.Sprintf("service: response failed to encode: %v", err))
	}
	panic(http.ErrAbortHandler)
}

// writeBody writes a cached /report or /findings body with a 200,
// gzip-compressed when the client accepts it: these bodies reach
// multiple megabytes on large corpora and compress roughly 20x. The body
// is already rendered, so nothing can fail before the status line; a
// write or gzip flush failure after it aborts the connection, as
// abortOnEncodeErr does, instead of leaving a complete-looking 200.
func writeBody(w http.ResponseWriter, r *http.Request, body []byte) {
	// The response varies on Accept-Encoding whichever variant is
	// chosen; caches must see Vary on the identity branch too. The
	// bodies change on every delta commit, so intermediaries must not
	// serve a stale one: no-store, never cache.
	h := w.Header()
	h.Add("Vary", "Accept-Encoding")
	h.Set("Cache-Control", "no-store")
	h.Set("Content-Type", "application/json")
	if !acceptsGzip(r) {
		h.Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, err := w.Write(body)
		abortOnEncodeErr(err)
		return
	}
	h.Set("Content-Encoding", "gzip")
	w.WriteHeader(http.StatusOK)
	gz := gzip.NewWriter(w)
	_, err := gz.Write(body)
	if err == nil {
		// A Close failure is a flush that never reached the client:
		// without the trailing gzip frame the body is undecodable.
		err = gz.Close()
	}
	abortOnEncodeErr(err)
}

// acceptsGzip reports whether the client's Accept-Encoding admits gzip.
// Codings and the q parameter compare case-insensitively, a q of 0
// refuses a coding, and a coding listed by name takes precedence over *
// (RFC 9110 §12.5.3); an unlisted gzip with no * is refused.
func acceptsGzip(r *http.Request) bool {
	gz, star := 0, 0 // per coding: 0 not listed, 1 accepted, -1 refused
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		coding, param, _ := strings.Cut(part, ";")
		verdict := 1
		if k, v, ok := strings.Cut(strings.TrimSpace(param), "="); ok && strings.EqualFold(strings.TrimSpace(k), "q") {
			if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q <= 0 {
				verdict = -1
			}
		}
		switch coding = strings.TrimSpace(coding); {
		case strings.EqualFold(coding, "gzip"):
			gz = verdict
		case coding == "*":
			star = verdict
		}
	}
	if gz != 0 {
		return gz > 0
	}
	return star > 0
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
