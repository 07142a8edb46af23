// Package difftest is the differential verification harness: it drives
// randomly generated corpora (internal/corpusgen) and random delta
// sequences through every engine path the repository offers —
//
//  1. the sequential reference engine (rules.RunSequential),
//  2. a cold run of the sharded rule engine (rules.Run) over path 1's
//     context,
//  3. the warm sharded assessor (core.Assessor.ApplyDelta + Findings,
//     riding per-module shard segments and the k-way merge),
//  4. the adserve HTTP service (POST /assess, POST /delta, GET /findings,
//     GET /report),
//  5. with Recover, the persistent store (internal/store): the warm
//     assessor journals every delta into a data directory, and at every
//     step a fifth state is recovered from disk — snapshot plus
//     read-only journal replay — and must match the others byte-for-
//     byte on findings, the full report, and shard stats, and encode
//     the same snapshot bytes as the warm assessor (the recovered state
//     copies the shards it still holds sealed; the warm one encodes
//     every shard). At the end of the run the harness additionally
//     simulates a crash mid-append by truncating a copy of the journal
//     and requires recovery to land exactly on the state at the last
//     complete record,
//  6. with Batch, the batched-delta path: a second warm assessor holds
//     the same mutations back as pending deltas and commits them k at a
//     time through core.Assessor.ApplyDeltaBatch; at every flush
//     boundary (and after a final tail flush) it must byte-match the
//     one-delta-at-a-time warm path,
//
// and asserts, at every step, that all paths produce byte-identical
// finding streams AND that those findings equal the generator's
// injected-violation manifest (the ground-truth oracle). A (seed, steps,
// params) triple replays deterministically, so any failure is a one-line
// reproduction recipe.
//
// cmd/adfuzz is the CLI front end; TestDifferentialSmoke keeps a short
// run in the tier-1 suite.
package difftest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/ccparse"
	"repro/internal/core"
	"repro/internal/corpusgen"
	"repro/internal/rules"
	"repro/internal/service"
	"repro/internal/srcfile"
	"repro/internal/store"
)

// Config parameterizes a differential run.
type Config struct {
	// Seed drives corpus generation and the mutation sequence.
	Seed int64
	// Steps is the number of mutation steps after the initial check.
	// Zero verifies only the initial corpus; negative is treated as 0.
	Steps int
	// Params shapes the generated corpus (zero value → defaults).
	Params corpusgen.Params
	// HTTP includes the adserve service path (an in-process listener).
	HTTP bool
	// Recover includes the persistent-store path: the warm assessor
	// journals every delta into a data directory, every step recovers a
	// fresh state from disk and byte-compares it, compaction triggers
	// naturally (the harness uses a small record threshold), and the
	// run ends with a truncated-tail crash simulation.
	Recover bool
	// Batch, when positive, adds the batched-delta path: a second warm
	// assessor accumulates the same mutation sequence as pending deltas
	// and flushes them through core.ApplyDeltaBatch every Batch steps
	// (and once more at the end of the run). At every flush boundary its
	// canonical findings must be byte-identical to the one-delta-at-a-
	// time warm assessor, pinning MergeDeltas' fold (last-op-wins,
	// remove-then-re-add-as-fresh) to the sequential semantics it claims.
	Batch int
	// RecoverDir is the data directory for Recover; empty means a
	// temporary directory removed after the run.
	RecoverDir string
	// Logf, when set, receives per-step progress lines.
	Logf func(format string, args ...interface{})
}

// Result summarizes a successful run.
type Result struct {
	// Steps is the number of verified steps (initial state + mutations).
	Steps int
	// Files is the final corpus size.
	Files int
	// Findings is the final finding count.
	Findings int
	// Mutations counts applied mutations by kind.
	Mutations map[corpusgen.MutationKind]int
	// Compactions counts mid-run journal compactions (Recover only).
	Compactions int
	// BatchFlushes counts ApplyDeltaBatch commits verified against the
	// one-at-a-time warm path (Batch only).
	BatchFlushes int
	// TornTailChecked reports that the end-of-run crash simulation
	// (truncated journal tail) was exercised (Recover only).
	TornTailChecked bool
}

// Run executes the differential harness, returning an error describing
// the first divergence (with its reproduction coordinates) or nil when
// every step verified.
func Run(cfg Config) (*Result, error) {
	if cfg.Steps < 0 {
		cfg.Steps = 0
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	gen := corpusgen.New(cfg.Params, cfg.Seed)

	// Path 3: a warm sharded assessor fed only deltas after the initial
	// load.
	warm := core.NewAssessor(core.DefaultConfig())
	if err := warm.LoadFileSet(gen.FileSet()); err != nil {
		return nil, fmt.Errorf("seed %d: initial load: %v", cfg.Seed, err)
	}

	// Path 6: the batched assessor. It sees the identical mutation
	// sequence but as fresh Delta values (never sharing *File pointers
	// with the warm assessor — CommitDelta makes files corpus-resident)
	// held back and committed Batch at a time through ApplyDeltaBatch.
	var batched *core.Assessor
	var pending []core.Delta
	if cfg.Batch > 0 {
		batched = core.NewAssessor(core.DefaultConfig())
		if err := batched.LoadFileSet(gen.FileSet()); err != nil {
			return nil, fmt.Errorf("seed %d: batched initial load: %v", cfg.Seed, err)
		}
	}

	// Path 5: the persistent store. The warm assessor's commit hook
	// journals every delta; a small record threshold makes compaction
	// fire mid-run so snapshots taken after deltas are exercised too.
	var cs *store.CorpusStore
	if cfg.Recover {
		root := cfg.RecoverDir
		if root == "" {
			tmp, err := os.MkdirTemp("", "adfuzz-store-")
			if err != nil {
				return nil, err
			}
			defer os.RemoveAll(tmp)
			root = tmp
		}
		d, err := store.Open(root, store.Options{MaxJournalRecords: 8})
		if err != nil {
			return nil, err
		}
		if cs, err = d.Corpus(corpusName); err != nil {
			return nil, err
		}
		if err := persistWarm(cs, warm); err != nil {
			return nil, fmt.Errorf("seed %d: initial snapshot: %v", cfg.Seed, err)
		}
		warm.SetCommitHook(cs.Append)
		defer cs.Close()
	}

	// Path 4: the HTTP service, fed the same initial corpus and deltas.
	var ts *httptest.Server
	if cfg.HTTP {
		svc := service.New()
		// The initial /assess uploads the whole generated corpus in one
		// body; at the 10k-file scale that exceeds the service's default
		// cap, so the harness's in-process instance gets a generous one.
		svc.MaxBody = 1 << 30
		ts = httptest.NewServer(svc.Handler())
		defer ts.Close()
		files := make(map[string]string, gen.Len())
		for _, p := range gen.Paths() {
			files[p] = gen.Source(p)
		}
		if err := postJSON(ts, "/assess", service.AssessRequest{Corpus: corpusName, Files: files}, nil); err != nil {
			return nil, fmt.Errorf("seed %d: initial /assess: %v", cfg.Seed, err)
		}
	}

	res := &Result{Mutations: make(map[corpusgen.MutationKind]int)}
	nFindings := 0
	var prevSeq, lastSeq []byte
	lastStepJournaled := false
	for step := 0; step <= cfg.Steps; step++ {
		if step > 0 {
			mut := gen.Mutate()
			res.Mutations[mut.Kind]++
			recsBefore := 0
			if cs != nil {
				recsBefore = cs.JournalRecords()
			}
			if err := applyMutation(warm, ts, mut); err != nil {
				return nil, fmt.Errorf("seed %d step %d: apply %s %s: %v",
					cfg.Seed, step, mut.Kind, mut.Path, err)
			}
			if batched != nil {
				pending = append(pending, mutationDelta(mut))
				if len(pending) >= cfg.Batch {
					if _, err := batched.ApplyDeltaBatch(pending); err != nil {
						return nil, fmt.Errorf("seed %d step %d: batched flush (%d deltas): %v",
							cfg.Seed, step, len(pending), err)
					}
					pending = nil
					res.BatchFlushes++
				}
			}
			// A mutation that regenerates identical content is a no-op
			// delta and journals nothing; track whether this step's
			// record is really the journal tail for the crash simulation
			// below.
			lastStepJournaled = cs != nil && cs.JournalRecords() == recsBefore+1
			if cs != nil && cs.ShouldCompact() {
				if err := persistWarm(cs, warm); err != nil {
					return nil, fmt.Errorf("seed %d step %d: compaction: %v", cfg.Seed, step, err)
				}
				res.Compactions++
				lastStepJournaled = false // absorbed into the snapshot
				logf("step %2d: compacted journal into a fresh snapshot", step)
			}
			logf("step %2d: %-6s %s (%d files)", step, mut.Kind, mut.Path, gen.Len())
		}
		n, seq, err := verifyStep(gen, warm, ts, cs)
		if err != nil {
			return nil, fmt.Errorf("seed %d step %d: %v", cfg.Seed, step, err)
		}
		// At a flush boundary the batched assessor has committed exactly
		// the mutations the warm assessor has applied one at a time, so
		// its canonical findings must match byte-for-byte.
		if batched != nil && len(pending) == 0 {
			if d := firstDiff(seq, canonical(batched.Findings())); d != "" {
				return nil, fmt.Errorf("seed %d step %d: batched assessor diverges from one-at-a-time warm path: %s",
					cfg.Seed, step, d)
			}
		}
		nFindings = n
		prevSeq, lastSeq = lastSeq, seq
		res.Steps++
	}

	// Final flush: commit whatever tail the batch cadence left pending
	// and require the end state to match the last verified step.
	if batched != nil && len(pending) > 0 {
		if _, err := batched.ApplyDeltaBatch(pending); err != nil {
			return nil, fmt.Errorf("seed %d: final batched flush (%d deltas): %v", cfg.Seed, len(pending), err)
		}
		res.BatchFlushes++
		if d := firstDiff(lastSeq, canonical(batched.Findings())); d != "" {
			return nil, fmt.Errorf("seed %d: batched assessor diverges after final flush: %s", cfg.Seed, d)
		}
	}

	// Crash simulation: truncate a copy of the journal mid-record and
	// require recovery to land on the state at the last complete record
	// — the previous step, whenever the final step's mutation is itself
	// the journal tail (skipped when the final step journaled nothing:
	// a no-op mutation, or a compaction that absorbed the record).
	if cs != nil && lastStepJournaled && prevSeq != nil {
		if err := verifyTornTail(cs, prevSeq); err != nil {
			return nil, fmt.Errorf("seed %d: torn-tail recovery: %v", cfg.Seed, err)
		}
		res.TornTailChecked = true
	}
	res.Files = gen.Len()
	res.Findings = nFindings
	return res, nil
}

// verifyTornTail copies the live store into a scratch directory,
// truncates the journal mid-record (the exact shape a crash during an
// append leaves behind), and requires recovery to (a) flag the torn
// tail and (b) land byte-identically on the state at the last complete
// record — the canonical findings of the previous step.
func verifyTornTail(cs *store.CorpusStore, wantSeq []byte) error {
	scratch, err := os.MkdirTemp("", "adfuzz-torn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	d, err := store.Open(scratch, store.Options{})
	if err != nil {
		return err
	}
	copyCS, err := d.Corpus(corpusName)
	if err != nil {
		return err
	}
	if err := cs.CopyTo(copyCS); err != nil {
		return err
	}
	jpath := filepath.Join(scratch, corpusName, "journal")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		return err
	}
	if err := os.WriteFile(jpath, raw[:len(raw)-3], 0o644); err != nil {
		return err
	}
	rec, info, err := copyCS.RecoverReadOnly(core.DefaultConfig())
	if err != nil {
		return err
	}
	if !info.Torn {
		return fmt.Errorf("truncated journal not reported as torn (replayed %d)", info.Replayed)
	}
	if d := firstDiff(wantSeq, canonical(rec.Findings())); d != "" {
		return fmt.Errorf("state diverges from the last complete record: %s", d)
	}
	return nil
}

// persistWarm snapshots the warm assessor's state into the store,
// absorbing the journal.
func persistWarm(cs *store.CorpusStore, warm *core.Assessor) error {
	st, err := warm.ExportState()
	if err != nil {
		return err
	}
	_, err = cs.WriteSnapshot(st)
	return err
}

// snapshotBytes encodes the assessor's exported state under a fixed
// generation tag.
func snapshotBytes(a *core.Assessor) ([]byte, error) {
	st, err := a.ExportState()
	if err != nil {
		return nil, err
	}
	return store.EncodeSnapshot(st, 1), nil
}

const corpusName = "adfuzz"

// mutationDelta renders one generator mutation as a standalone Delta
// with its own File value, safe to commit into a second assessor.
func mutationDelta(mut corpusgen.Mutation) core.Delta {
	if mut.Removal() {
		return core.Delta{Removed: []string{mut.Path}}
	}
	return core.Delta{Changed: []*srcfile.File{{Path: mut.Path, Src: mut.Src}}}
}

// applyMutation mirrors one generator mutation into the warm assessor and
// (when enabled) the HTTP service.
func applyMutation(warm *core.Assessor, ts *httptest.Server, mut corpusgen.Mutation) error {
	var d core.Delta
	req := service.DeltaRequest{Corpus: corpusName}
	if mut.Removal() {
		d.Removed = []string{mut.Path}
		req.Removed = []string{mut.Path}
	} else {
		d.Changed = []*srcfile.File{{Path: mut.Path, Src: mut.Src}}
		req.Changed = map[string]string{mut.Path: mut.Src}
	}
	if _, err := warm.ApplyDelta(d); err != nil {
		return fmt.Errorf("warm ApplyDelta: %v", err)
	}
	if ts != nil {
		if err := postJSON(ts, "/delta", req, nil); err != nil {
			return fmt.Errorf("/delta: %v", err)
		}
	}
	return nil
}

// verifyStep checks all engine paths against each other and against the
// manifest for the generator's current corpus, returning the finding
// count and the canonical finding bytes.
func verifyStep(gen *corpusgen.Generator, warm *core.Assessor, ts *httptest.Server, cs *store.CorpusStore) (int, []byte, error) {
	// Paths 1+2: cold parse, then the reference engine and a cold run of
	// the sharded engine over one context.
	fs := gen.FileSet()
	units, errs := ccparse.ParseAll(fs, ccparse.Options{})
	if len(errs) > 0 {
		return 0, nil, fmt.Errorf("generated corpus has parse errors: %v", errs[0])
	}
	ctx := rules.NewContext(units)
	seq := rules.RunSequential(ctx, rules.DefaultRules())
	cold := rules.Run(ctx, rules.DefaultRules())

	seqBytes := canonical(seq)
	if d := firstDiff(seqBytes, canonical(cold)); d != "" {
		return 0, nil, fmt.Errorf("cold sharded engine diverges from sequential reference: %s", d)
	}
	if d := firstDiff(seqBytes, canonical(warm.Findings())); d != "" {
		return 0, nil, fmt.Errorf("warm sharded assessor diverges from sequential reference: %s", d)
	}

	// The warm assessor's report backs both the store and HTTP
	// comparisons; build and marshal it once per step.
	var warmReport []byte
	if cs != nil || ts != nil {
		var err error
		if warmReport, err = json.Marshal(service.BuildReport(corpusName, warm)); err != nil {
			return 0, nil, err
		}
	}

	// Path 5: a state recovered from the persistent store — snapshot
	// plus read-only journal replay — must match on findings, the full
	// report, and shard stats.
	if cs != nil {
		rec, _, err := cs.RecoverReadOnly(warm.Config())
		if err != nil {
			return 0, nil, fmt.Errorf("store recovery: %v", err)
		}
		if d := firstDiff(seqBytes, canonical(rec.Findings())); d != "" {
			return 0, nil, fmt.Errorf("recovered store state diverges from sequential reference: %s", d)
		}
		recReport, err := json.Marshal(service.BuildReport(corpusName, rec))
		if err != nil {
			return 0, nil, err
		}
		if d := firstDiff(warmReport, recReport); d != "" {
			return 0, nil, fmt.Errorf("recovered store report diverges from warm assessor: %s", d)
		}
		if w, r := fmt.Sprintf("%v", warm.ShardStats()), fmt.Sprintf("%v", rec.ShardStats()); w != r {
			return 0, nil, fmt.Errorf("recovered shard stats diverge:\n  warm %s\n  rec  %s", w, r)
		}
		recSnap, err := snapshotBytes(rec)
		if err != nil {
			return 0, nil, err
		}
		warmSnap, err := snapshotBytes(warm)
		if err != nil {
			return 0, nil, err
		}
		if d := firstDiff(warmSnap, recSnap); d != "" {
			return 0, nil, fmt.Errorf("recovered snapshot encode diverges from warm assessor: %s", d)
		}
	}

	// Path 4: the service's finding rows and full report.
	if ts != nil {
		var fr service.FindingsResponse
		if err := getJSON(ts, "/findings?corpus="+corpusName, &fr); err != nil {
			return 0, nil, fmt.Errorf("/findings: %v", err)
		}
		httpBytes, err := json.Marshal(fr.Findings)
		if err != nil {
			return 0, nil, err
		}
		if d := firstDiff(seqBytes, httpBytes); d != "" {
			return 0, nil, fmt.Errorf("HTTP /findings diverges from sequential reference: %s", d)
		}
		httpReport, err := getRaw(ts, "/report?corpus="+corpusName)
		if err != nil {
			return 0, nil, fmt.Errorf("/report: %v", err)
		}
		if d := firstDiff(warmReport, bytes.TrimSpace(httpReport)); d != "" {
			return 0, nil, fmt.Errorf("HTTP /report diverges from warm assessor report: %s", d)
		}
	}

	// Oracle: the findings must equal the injected-violation manifest.
	if err := CheckOracle(seq, gen.Manifest()); err != nil {
		return 0, nil, err
	}
	return len(seq), seqBytes, nil
}

// canonical renders findings as canonical JSON via the service's wire
// projection, so in-process engines and the HTTP path compare in the
// same space (FindingRows always returns a non-nil slice, so an empty
// stream is "[]" on both sides).
func canonical(fs []rules.Finding) []byte {
	b, err := json.Marshal(service.FindingRows(fs))
	if err != nil {
		panic(err) // plain data marshal cannot fail
	}
	return b
}

// firstDiff locates the first byte divergence and returns a short
// context window ("" when equal).
func firstDiff(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	window := func(s []byte) string {
		lo, hi := i-40, i+80
		if lo < 0 {
			lo = 0
		}
		if hi > len(s) {
			hi = len(s)
		}
		return string(s[lo:hi])
	}
	return fmt.Sprintf("byte %d (lengths %d vs %d):\n  a: …%s…\n  b: …%s…",
		i, len(a), len(b), window(a), window(b))
}

// CheckOracle verifies that engine findings equal the manifest as a
// multiset of (rule, file, line). The error lists the first few
// unexpected and missing findings.
func CheckOracle(fs []rules.Finding, man *corpusgen.Manifest) error {
	want := make(map[corpusgen.Expect]int)
	for _, e := range man.All() {
		want[e]++
	}
	var extra []string
	for i := range fs {
		e := corpusgen.Expect{Rule: fs[i].RuleID, Path: fs[i].File, Line: fs[i].Line}
		if want[e] > 0 {
			want[e]--
			continue
		}
		extra = append(extra, fs[i].String())
	}
	var missing []string
	for e, n := range want {
		for i := 0; i < n; i++ {
			missing = append(missing, e.String())
		}
	}
	if len(extra) == 0 && len(missing) == 0 {
		return nil
	}
	sort.Strings(extra)
	sort.Strings(missing)
	return fmt.Errorf("oracle mismatch: %d findings not in manifest %v; %d manifest entries unreported %v",
		len(extra), cap8(extra), len(missing), cap8(missing))
}

// cap8 bounds an error listing.
func cap8(s []string) []string {
	if len(s) > 8 {
		return append(s[:8:8], "…")
	}
	return s
}

// ---------------------------------------------------------------------------
// Minimal HTTP client helpers against the in-process service.

func postJSON(ts *httptest.Server, path string, body, out interface{}) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return decodeResp(resp, out)
}

func getJSON(ts *httptest.Server, path string, out interface{}) error {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return err
	}
	return decodeResp(resp, out)
}

func getRaw(ts *httptest.Server, path string) ([]byte, error) {
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	return raw, nil
}

func decodeResp(resp *http.Response, out interface{}) error {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}
